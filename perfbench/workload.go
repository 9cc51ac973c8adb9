package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"tkcm/client"
)

// workload is one traffic mix. Every number that shapes the inputs or the
// offered load is pinned here, so a workload's inputs are a pure function of
// (workload, seed) and its fixed rate is an absolute number, not a share of
// whatever the machine sustains.
type workload struct {
	name string
	why  string

	tenants int
	streams int
	cfg     client.Config
	warm    int     // complete rows per tenant ingested during set-up
	missing float64 // share of cells dropped after warm-up
	missRun int     // mean missing-run length

	// rate is the fixed-rate phase's offered load in rows/s across all
	// tenants; lead is the unmeasured lead-in at the same rate that lets the
	// profiler's lazy aggregates build before timing starts.
	rate     float64
	lead     time.Duration
	batch    int // client StreamOptions.Batch
	inflight int // client StreamOptions.MaxInFlight

	// Residency shape (cold_tenants only): tenants outnumber the resident
	// engine cap, and traffic arrives as Zipf-skewed bursts that each open a
	// sequenced stream, send burst rows and close.
	resident   int
	burst      int
	zipf       float64
	checkpoint time.Duration
}

// cold reports whether the workload drives tenants in short bursts.
func (w *workload) cold() bool { return w.burst > 0 }

// burstsIn is how many bursts a cold workload schedules in a paced phase of
// dur.
func (w *workload) burstsIn(dur time.Duration) int {
	return int(w.rate / float64(w.burst) * dur.Seconds())
}

var workloads = []workload{
	{
		name:    "ingest",
		why:     "wide healthy rows on a short window: codec, batching and WAL do the work while the engine bulk-appends",
		tenants: 2, streams: 64,
		cfg:     client.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 1024},
		warm:    1024,
		missing: 0.002, missRun: 1,
		rate: 6000, lead: 500 * time.Millisecond,
		batch: 64, inflight: 256,
	},
	{
		name:    "impute",
		why:     "narrow seasonal rows with bursty gaps over a two-week window: profile catch-up and DP anchor selection dominate",
		tenants: 2, streams: 16,
		cfg:     client.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 4032},
		warm:    4032,
		missing: 0.05, missRun: 8,
		rate: 1500, lead: 500 * time.Millisecond,
		batch: 64, inflight: 256,
	},
	// cold_tenants is not among BENCHMARK.json's workloads while the WAL
	// defect below stands. Hydration's tail replay syncs a log that has
	// nothing pending; that sync's early return in wal.Log.syncLocked leaves
	// the log's two encode buffers on one array, so a batch appended during
	// a later group commit overwrites the frames being written, and the
	// tenant fail-stops on its next hydration ("sequence jump"). A run that
	// hits it counts the tenant's rows as failed and exits non-zero.
	{
		name:    "cold_tenants",
		why:     "many more tenants than resident engines under Zipf bursts: WAL-tail replay and snapshot restore on hydration",
		tenants: 64, streams: 8,
		cfg:     client.Config{K: 5, PatternLength: 24, D: 3, WindowLength: 512},
		warm:    512,
		missing: 0.04, missRun: 4,
		rate: 2400, lead: 500 * time.Millisecond,
		batch: 32, inflight: 64,
		resident: 8, burst: 32, zipf: 1.1, checkpoint: time.Second,
	},
}

// shapeSeed fixes a workload's feed shape independently of the run seed.
func (w *workload) shapeSeed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return h.Sum64()
}

func (w *workload) newGen(seed uint64) *gen {
	return newGen(w.shapeSeed(), seed, w.tenants, w.streams, w.warm, w.missing, w.missRun)
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
