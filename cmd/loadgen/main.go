// Command loadgen drives a deployed upgrade engine or fleet unit over
// TCP and emits a machine-readable JSON load report, or runs a named
// chaos scenario (fault-injected fleet + load + assertions) and exits
// non-zero when the scenario's dependability claims do not hold.
//
// Examples:
//
//	# closed loop: 4 workers, 2000 demands
//	loadgen -url http://localhost:8080/flights/ -n 2000 -c 4
//
//	# open loop: 500 demands/s for 30s, coordinated-omission-resistant
//	loadgen -url http://localhost:8080/flights/ -mode open -rps 500 -duration 30s
//
//	# chaos scenario for CI
//	loadgen -scenario corrupt-never-wins -out report.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsupgrade/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// urlList collects repeated -url flags.
type urlList []string

func (u *urlList) String() string     { return strings.Join(*u, ",") }
func (u *urlList) Set(v string) error { *u = append(*u, v); return nil }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var urls urlList
	fs.Var(&urls, "url", "target endpoint (repeatable; workers round-robin)")
	operation := fs.String("op", "add", "demo operation to drive: add or operation1")
	protocol := fs.String("protocol", "soap", "gateway wire protocol: soap or json")
	mode := fs.String("mode", "closed", "drive mode: closed or open")
	concurrency := fs.Int("c", 0, "workers (closed) / max in-flight (open); 0 = default")
	rps := fs.Float64("rps", 0, "open-loop target arrival rate")
	requests := fs.Int("n", 0, "stop after this many demands")
	duration := fs.Duration("duration", 0, "stop after this long")
	timeout := fs.Duration("timeout", 10*time.Second, "per-demand deadline")
	seed := fs.Uint64("seed", 1, "seed for request parameters and fault injection")
	out := fs.String("out", "", "write the JSON report here instead of stdout")
	scenario := fs.String("scenario", "", "run a named chaos scenario instead of raw load (see -list)")
	list := fs.Bool("list", false, "list scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range loadgen.Scenarios() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	dest := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dest = f
	}

	if *scenario != "" {
		res, err := loadgen.RunScenario(ctx, *scenario, loadgen.ScenarioOptions{
			Requests:    *requests,
			Duration:    *duration,
			Concurrency: *concurrency,
			Seed:        *seed,
			Log:         stderr,
		})
		if res.Scenario != "" {
			if werr := res.WriteJSON(dest); werr != nil && err == nil {
				err = werr
			}
		}
		return err
	}

	if len(urls) == 0 {
		return errors.New("need -url (or -scenario)")
	}
	if *mode != "closed" && *mode != "open" {
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	rep, err := loadgen.Run(ctx, loadgen.Options{
		URLs:        urls,
		Operation:   *operation,
		Protocol:    *protocol,
		OpenLoop:    *mode == "open",
		Concurrency: *concurrency,
		RPS:         *rps,
		Requests:    *requests,
		Duration:    *duration,
		Timeout:     *timeout,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	return rep.WriteJSON(dest)
}
