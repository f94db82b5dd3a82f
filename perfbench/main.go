// Command perfbench is the repository's benchmark. It runs one named
// workload against the distlock lock service from a seed, checks that the
// service behaved correctly, and prints the workload's metrics with their
// units as one JSON object on the last line of standard output.
//
//	perfbench --workload remote-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics a user of the service sees.
// --trace 1 is a separate run that prints the per-layer metrics: it runs
// the workload untraced and then traced (the service's latency histograms
// and trace sampling armed, and the benchmark's own spans around every
// call into the service), then drives the lock table, the wire protocol
// and the admission service directly. The load is closed-loop from this one
// process. Every layer is timed from outside, through its public functions
// and the counters it already exports.
//
// A failed correctness check prints the reasons on standard error, prints
// no metrics and exits with status 1.
//
// run.sh builds and runs it from the root of a checkout. BENCHMARK.json at
// the root names the workloads and metrics; metrics.json here says what
// each workload exercises and what each per-layer metric should move. The
// self-test (go test in this directory) runs every workload briefly and
// checks that the gate passes and every named metric is printed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// hardLimit bounds a whole run: past it a wedged call cannot be cancelled
// any more, so the process reports the stall and exits.
const hardLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints: a self-description first, then the
// result line the contract asks for.
type report struct {
	metrics  map[string]metric
	describe map[string]any
	outcomes *outcomes
	failures []string // correctness-gate violations
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, describe: map[string]any{}, outcomes: &outcomes{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// gate records a correctness violation unless ok holds.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(ctx context.Context, o options, r *report) error
}

var workloads = []workload{
	{"local-uniform", sessionWorkload(localUniform)},
	{"remote-zipf", sessionWorkload(remoteZipf)},
	{"remote-pipelined", sessionWorkload(remotePipelined)},
	{"admit-churn", runChurn},
}

func main() {
	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run still going after %v: a call is wedged\n", hardLimit)
		os.Exit(3)
	})
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if o.seconds <= 0 || o.seconds > 120 {
		return fmt.Errorf("--seconds must be in (0, 120], not %v", o.seconds)
	}
	o.trace = trace == 1
	var wl *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}

	r := newReport()
	r.describe["workload"] = o.workload
	r.describe["seed"] = o.seed
	r.describe["seconds"] = o.seconds
	r.describe["trace"] = o.trace
	r.describe["host"] = hostFingerprint()
	if err := wl.run(context.Background(), o, r); err != nil {
		return err
	}
	r.describe["outcomes"] = r.outcomes.describe()
	if n := r.outcomes.failedTotal(); n > 0 {
		r.gate(false, "%d operations failed: %v", n, r.outcomes.describe())
	}
	if len(r.failures) > 0 {
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", f)
		}
		return errors.New("correctness gate failed; no metrics printed")
	}

	desc, err := json.Marshal(map[string]any{"describe": r.describe})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(desc))
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.outcomes.attemptedOps(), r.outcomes.failedTotal(), r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(res))
	return nil
}
