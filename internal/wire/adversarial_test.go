// Adversarial transport suite: a misbehaving release endpoint must not
// be able to wedge, starve, or balloon the dispatch hot path, whichever
// transport carries it. Each attack runs against both entries of the
// conformance table — the lean wire client and the net/http fallback —
// because an asymmetry here would make transport choice a correctness
// decision instead of a performance one.
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/testutil"
)

// TestAdversarialSlowDripBody: a release that acknowledges instantly but
// drips its body one byte every 50ms (≈13s for a small envelope) must
// not hold a dispatch past its deadline.
func TestAdversarialSlowDripBody(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			body := []byte("<response>slow and steady loses the race</response>")
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// A declared length makes the reader wait for each byte:
				// the read-deadline path, not the EOF-framed one.
				w.Header().Set("Content-Type", testCT)
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				for i := range body {
					if _, err := w.Write(body[i : i+1]); err != nil {
						return
					}
					w.(http.Flusher).Flush()
					select {
					case <-time.After(50 * time.Millisecond):
					case <-r.Context().Done():
						return
					}
				}
			}))
			defer ts.Close()

			post, closeTr := tr.make(t)
			defer closeTr()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := post(ctx, ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("dripped body delivered despite a 200ms deadline")
			}
			if elapsed > 3*time.Second {
				t.Fatalf("transport released the dispatch after %v — read deadline not honoured", elapsed)
			}
		})
	}
}

// TestAdversarialOversizedChunkedBody: a release streaming an unbounded
// chunked body (no Content-Length to pre-reject on) must be cut off at
// httpx.DefaultMaxResponseBytes, with the server's outbound byte count
// bounded too — proof the client aborted the transfer instead of
// swallowing it.
func TestAdversarialOversizedChunkedBody(t *testing.T) {
	const hardCap = 64 << 20 // server gives up here: the attack "won"
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			written := make(chan int64, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", testCT)
				flusher := w.(http.Flusher)
				chunk := make([]byte, 32<<10)
				for i := range chunk {
					chunk[i] = 'x'
				}
				var n int64
				for n < hardCap {
					wrote, err := w.Write(chunk)
					n += int64(wrote)
					if err != nil {
						break
					}
					flusher.Flush()
				}
				written <- n
			}))
			defer ts.Close()

			post, closeTr := tr.make(t)
			defer closeTr()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := post(ctx, ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			if !errors.Is(err, httpx.ErrTooLarge) {
				t.Fatalf("err = %v, want ErrTooLarge", err)
			}
			closeTr() // drop pooled connections so the server's write fails now
			select {
			case n := <-written:
				if n >= hardCap {
					t.Fatalf("server streamed the full %d bytes — client never cut the transfer", n)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("server still streaming 5s after the client rejected the body")
			}
		})
	}
}

// floodServer is a raw TCP origin that answers any request with an
// endless response-header section (4KB lines), up to hardCap bytes. It
// bypasses net/http on the server side because net/http cannot be made
// to emit an adversarial header section.
func floodServer(t *testing.T, hardCap int64) (url string, written func() int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	done := make(chan struct{})
	// LIFO: close the listener first so a never-connected flood
	// goroutine unblocks from Accept before the done-wait.
	t.Cleanup(func() { <-done })
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read until the end of the request headers; the body may follow
		// but the flood does not need it.
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil || line == "\r\n" || line == "\n" {
				break
			}
		}
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\n"); err != nil {
			return
		}
		pad := make([]byte, 4096)
		for i := range pad {
			pad[i] = 'h'
		}
		for i := 0; total < hardCap; i++ {
			n, err := fmt.Fprintf(conn, "X-Flood-%d: %s\r\n", i, pad)
			total += int64(n)
			if err != nil {
				return
			}
		}
	}()
	return "http://" + ln.Addr().String(), func() int64 { <-done; return total }
}

// TestAdversarialHeaderFlood: a release flooding the response header
// section must hit the client's header budget (1MB for the wire client,
// net/http's own response-header cap for the fallback), not OOM the
// dispatcher. The server-side write counter proves the client hung up.
func TestAdversarialHeaderFlood(t *testing.T) {
	const hardCap = 64 << 20
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			url, written := floodServer(t, hardCap)
			post, closeTr := tr.make(t)
			defer closeTr()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, err := post(ctx, url, testCT, []byte("<in/>"), httpx.NoRetry)
			if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
				t.Fatal("client sat through 20s of header flood instead of rejecting it")
			}
			if err == nil {
				t.Fatal("header flood accepted as a response")
			}
			closeTr() // hang up so the flood's next write fails
			if n := written(); n >= hardCap {
				t.Fatalf("server flooded the full %d bytes — no header budget enforced", n)
			}
		})
	}
}
