// Command perfbench is the repository's serving benchmark. One process hosts
// the real serving stack (server.New over shard.New and wal.NewManager, on a
// loopback ephemeral port) and drives it through the public client package,
// checks every served value against single-threaded reference engines, and
// prints the end-to-end metrics of one workload. It never starts a child
// process.
//
// Usage, from the repository root (the benchmark is a module of its own):
//
//	go -C perfbench run tkcm/perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// Workloads: ingest (wide healthy rows: codec, batching and WAL), impute
// (narrow seasonal rows with bursty gaps: the engine's pattern extraction)
// and cold_tenants (many more tenants than resident engines: hydration).
// Each run sets the stack up several times and keeps the last, runs an
// unmeasured lead-in, a fixed-rate open-loop phase whose latency is charged
// from each row's due time, and, for ingest and impute, a closed-loop
// capacity phase. The gated metrics (gatedMetrics) are CPU, memory,
// accuracy and set-up figures; ack latency percentiles, closed-loop rows/s
// and wall set-up time are printed as informational values with their
// sample counts.
//
// With --trace 1 the run instead measures layer by layer: an untraced and a
// traced fixed-rate phase (the difference is the tracing overhead), spans
// around every client call and every HTTP request, body read and ack write,
// then a single-goroutine replay of the served lines through each layer's
// public entry points. Spans are kept in memory and written to
// <root>/.bench_build/perfbench/spans-<workload>.jsonl when the run ends.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when the
// run completed and every check passed; a signal, the wall-clock deadline,
// a panic or a failed check all tear the stack down, remove the run's
// directories and exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := runMain(ctx, os.Args[1:], os.Stdout, os.Stderr, nil)
	stop()
	os.Exit(code)
}

// options are the command-line settings plus test hooks.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root: provenance is read here
	workdir  string // every file the run writes lives below it

	// Test hooks.
	deadline time.Duration    // hard wall-clock budget (runDeadline)
	onStack  func(url string) // called once the kept stack serves
	panicAt  string           // inject a panic in a phase
	corrupt  bool             // corrupt one reference hash so the check fails
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{deadline: runDeadline}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: ingest, impute or cold_tenants")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; inputs are a pure function of (workload, seed)")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run (fixed-rate plus any capacity phase)")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.root, "root", "..", "checkout root (provenance and output location)")
	fs.StringVar(&o.workdir, "workdir", "", "directory for the run's files (default <root>/.bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := lookupWorkload(o.workload); err != nil {
		return o, err
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("--seconds %d: want 1..60", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.workdir == "" {
		o.workdir = filepath.Join(o.root, ".bench_build", "perfbench")
	}
	return o, nil
}

// runMain runs one benchmark invocation and returns the process exit code.
// ctx carries SIGINT/SIGTERM; the deadline and the orphan guard are added
// here.
func runMain(ctx context.Context, args []string, stdout, stderr io.Writer, hook func(*options)) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if hook != nil {
		hook(&o)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	ctx, cancel := context.WithTimeout(ctx, o.deadline)
	defer cancel()
	go watchParent(ctx, cancel)
	finished := make(chan struct{})
	defer close(finished)
	go exitIfTeardownHangs(ctx, finished, stderr)

	var rep *report
	err = guard(func() (err error) {
		rep, err = run(ctx, o)
		return err
	})
	if err == nil {
		err = rep.checkMetrics()
	}
	if err != nil {
		if cerr := context.Cause(ctx); cerr != nil && !errors.Is(err, cerr) {
			err = fmt.Errorf("%w (%v)", err, cerr)
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// watchParent cancels the run when this process is orphaned — the `go run`
// wrapper that started it was killed — so a benchmark never outlives its
// launcher.
func watchParent(ctx context.Context, cancel context.CancelFunc) {
	ppid := os.Getppid()
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if os.Getppid() != ppid {
				cancel()
				return
			}
		}
	}
}

// runDeadline is the hard wall-clock budget of one invocation: past it the
// run aborts and cleans up. teardownLimit bounds the teardown after a signal
// or the deadline, so the process is gone well within three minutes.
const (
	runDeadline   = 150 * time.Second
	teardownLimit = 20 * time.Second
)

// exitIfTeardownHangs ends the process when a cancelled run has not
// finished tearing down within teardownLimit.
func exitIfTeardownHangs(ctx context.Context, finished <-chan struct{}, stderr io.Writer) {
	select {
	case <-finished:
		return
	case <-ctx.Done():
	}
	select {
	case <-finished:
	case <-time.After(teardownLimit):
		fmt.Fprintln(stderr, "perfbench: teardown did not finish after cancellation; exiting")
		os.Exit(3)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured: the result plus provenance, raw
// per-repeat values, server counters and, when traced, the ledger.
type report struct {
	result
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Provenance provenance     `json:"provenance"`
	Samples    map[string]int `json:"samples"`
	Raw        map[string]any `json:"raw"`
	Counters   *counters      `json:"server_counters,omitempty"`
	Ledger     *ledger        `json:"ledger,omitempty"`
	Info       []infoValue    `json:"info,omitempty"`
	Problems   []string       `json:"problems,omitempty"`
	order      []string
}

func newReport(o options) *report {
	return &report{
		result:     result{Metrics: map[string]metric{}},
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Provenance: readProvenance(o.root),
		Samples:    map[string]int{},
		Raw:        map[string]any{},
	}
}

// set records a metric with its unit and the sample count behind it.
func (r *report) set(name string, v float64, unit string, samples int) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.Samples[name] = samples
}

// inform records a measured value that is printed and kept in the detail
// but is not one of the run's gated metrics (see informational).
func (r *report) inform(name string, v float64, unit string, samples int) {
	r.Info = append(r.Info, infoValue{Name: name, Value: v, Unit: unit, Samples: samples})
}

// infoValue is one informational measurement.
type infoValue struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v commit %s go %s nproc %d gomaxprocs %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Provenance.Commit, r.Provenance.Go, r.Provenance.NumCPU, r.Provenance.GOMAXPROCS)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, r.Samples[name])
	}
	for _, v := range r.Info {
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d (informational)\n", v.Name, v.Value, v.Unit, v.Samples)
	}
	if r.Ledger != nil {
		r.Ledger.print(w)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	detail, _ := json.Marshal(r)
	fmt.Fprintf(w, "detail %s\n", detail)
	last, _ := json.Marshal(&r.result)
	fmt.Fprintf(w, "%s\n", last)
}
