package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"wsupgrade/internal/core"
)

// A workload is one traffic mix the benchmark runs, in a process of its
// own. Every workload deploys two releases behind one fleet unit with
// oracle.Reference{old}, the default wire transport, ModeReliability,
// no journal and no policy; what varies is what README.md's interaction
// table is built on: codec, phase, message size, the new release's
// wrong answers, and §6.2 confidence publication.
type workload struct {
	name string
	why  string
	// json selects the REST/JSON codec; otherwise SOAP.
	json  bool
	phase core.Phase
	// replyPad is the padding of every reply in bytes; requests always
	// carry smallPad.
	replyPad int
	// wrongShare is the share of request-table entries on which the new
	// release serves its wrong-but-well-formed reply (§5.1 non-evident
	// failure).
	wrongShare float64
	// publish puts §6.2 confidence on every response.
	publish bool
	// releaseCalls is release calls per mediated demand, by construction.
	releaseCalls int
}

const (
	smallPad = 160       // 0.4 KB messages once framed
	largePad = 64 * 1024 // the byte-proportional workload's replies
	// tableSize is the number of distinct requests a run cycles through:
	// enough that no layer can key on a body, few enough that the large
	// workload's pre-rendered replies stay around 25 MB.
	tableSize = 200
)

var workloads = []workload{
	{
		name:  "oldonly-small",
		why:   "SOAP, old release only, 0.3 KB: bare forwarding at the smallest message, where the fixed per-demand cost is everything and added handling shows undiluted",
		phase: core.PhaseOldOnly, replyPad: smallPad, releaseCalls: 1,
	},
	{
		name: "parallel-json",
		why:  "REST/JSON, parallel phase, 0.3 KB: fan-out, wait-for-all and adjudication through the second codec, so a gain for SOAP or the fast path that costs these shows",
		json: true, phase: core.PhaseParallel, replyPad: smallPad, releaseCalls: 2,
	},
	{
		name:  "observation-large",
		why:   "SOAP, observation phase, 64 KB replies, new release wrong on 5 % of requests: the same layers doing byte-proportional work, and the paper's check that no wrong reply is delivered",
		phase: core.PhaseObservation, replyPad: largePad, wrongShare: 0.05, releaseCalls: 2,
	},
	{
		name:  "publish-small",
		why:   "SOAP, observation phase, 0.3 KB, confidence published on every response: one uncached Bayesian posterior per demand, so inference does most of the work here and none elsewhere",
		phase: core.PhaseObservation, replyPad: smallPad, publish: true, releaseCalls: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// operation is the one operation every workload invokes.
const operation = "quote"

const (
	soapContentType = "text/xml; charset=utf-8"
	jsonContentType = "application/json"

	envelopeOpen  = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>`
	envelopeClose = `</soap:Body></soap:Envelope>`
	bodyOpen      = `<soap:Body>`
)

// demand is one entry of the request table: the bytes the consumer sends
// and the payload it must get back.
type demand struct {
	request []byte
	// reply is what a correct release serves, framed; wrongReply, when
	// non-nil, is what the new release serves instead.
	reply, wrongReply []byte
	// payload is the part of reply a consumer of the mediator must
	// receive byte for byte: the SOAP Body's content (the mediator
	// re-envelopes), or the whole JSON document. wrongPayload is the
	// same part of wrongReply.
	payload, wrongPayload []byte
}

// fixtures is everything the seed decides: the request table with its
// pre-rendered replies. The program under test sees only these bytes.
type fixtures struct {
	contentType string
	// path is appended to a base URL to address the operation.
	path    string
	demands []demand
	// maxReply bounds the consumer's body reads.
	maxReply int
}

// makeFixtures renders the request table for one workload and seed:
// operands and padding are drawn from the seed, and so is which entries
// the new release answers wrongly — a property of the request, so a
// demand faults identically whatever the interleaving.
func makeFixtures(w workload, seed uint64) *fixtures {
	rng := rand.New(rand.NewPCG(seed, 0x6d65646961746f72))
	fx := &fixtures{contentType: soapContentType, path: "/"}
	if w.json {
		fx.contentType = jsonContentType
		fx.path = "/" + operation
	}
	wrong := int(w.wrongShare*tableSize + 0.5)
	wrongAt := make(map[int]bool, wrong)
	for _, i := range rng.Perm(tableSize)[:wrong] {
		wrongAt[i] = true
	}
	// A JSON message has no envelope; it carries that much more padding,
	// so both codecs move the same number of bytes.
	extra := 0
	if w.json {
		extra = len(envelopeOpen) + len(envelopeClose)
	}
	fx.demands = make([]demand, tableSize)
	for i := range fx.demands {
		a, b := rng.IntN(1_000_000), rng.IntN(1_000_000)
		d := &fx.demands[i]
		d.request = frame(w.json, requestBody(w.json, i, a, b, padding(rng, smallPad+extra)))
		pad := padding(rng, w.replyPad+extra)
		d.reply = frame(w.json, replyBody(w.json, i, a+b, pad))
		d.payload = unframe(w.json, d.reply)
		if wrongAt[i] {
			// Off by one in the sum, same length: well-formed, plausible, wrong.
			d.wrongReply = frame(w.json, replyBody(w.json, i, a+b+1, pad))
			d.wrongPayload = unframe(w.json, d.wrongReply)
		}
		fx.maxReply = max(fx.maxReply, len(d.reply))
	}
	// The mediator's own framing (and a published confidence header) may
	// be a little larger than the stub's.
	fx.maxReply += 1024
	return fx
}

func padding(rng *rand.Rand, n int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	p := make([]byte, n)
	for i := range p {
		p[i] = letters[rng.IntN(len(letters))]
	}
	return p
}

// sumWidth pads the sum so a wrong variant has its reply's length.
const sumWidth = 8

func requestBody(json bool, id, a, b int, pad []byte) []byte {
	if json {
		return fmt.Appendf(nil, `{"id":%d,"a":%d,"b":%d,"pad":"%s"}`, id, a, b, pad)
	}
	return fmt.Appendf(nil, `<%sRequest><id>%d</id><a>%d</a><b>%d</b><pad>%s</pad></%sRequest>`,
		operation, id, a, b, pad, operation)
}

func replyBody(json bool, id, sum int, pad []byte) []byte {
	s := strconv.Itoa(sum)
	for len(s) < sumWidth {
		s = "0" + s
	}
	if json {
		return fmt.Appendf(nil, `{"id":%d,"sum":"%s","pad":"%s"}`, id, s, pad)
	}
	return fmt.Appendf(nil, `<%sResponse><id>%d</id><sum>%s</sum><pad>%s</pad></%sResponse>`,
		operation, id, s, pad, operation)
}

func frame(json bool, body []byte) []byte {
	if json {
		return body
	}
	out := make([]byte, 0, len(envelopeOpen)+len(body)+len(envelopeClose))
	out = append(out, envelopeOpen...)
	out = append(out, body...)
	return append(out, envelopeClose...)
}

func unframe(json bool, framed []byte) []byte {
	if json {
		return framed
	}
	return framed[len(envelopeOpen) : len(framed)-len(envelopeClose)]
}
