// Package obs is the serving stack's observability kit: a monotonic stage
// clock, fixed-bucket zero-allocation latency histograms, a deterministic
// 1-in-N trace sampler, Go runtime telemetry, and a small Prometheus
// text-exposition parser (used by the conformance test and by the SLO
// sweeps' and perfbench's server-side latency attribution).
//
// The design constraint throughout is the hot path: Now, Histogram.Observe,
// and Sampler.Hit are allocation-free and lock-free (atomics only), cheap
// enough to run on every tick unconditionally — sampling gates logging,
// never measurement.
package obs

import (
	"sync/atomic"
	"time"
)

// base anchors the process-local monotonic clock. Only differences of Now
// values are meaningful.
var base = time.Now()

// Now returns nanoseconds since process start on the monotonic clock — a
// single vDSO read, no allocation. Timestamps are only comparable within
// this process.
func Now() int64 { return int64(time.Since(base)) }

// Stage identifies one leg of a tick's end-to-end path. The values index
// per-shard histogram arrays and label the tkcm_tick_stage_seconds series.
type Stage int

// The tick path's stages, in wire order: NDJSON decode, shard-queue wait,
// engine compute (including the WAL append memcpy), group-commit durability
// wait, and the ack write back to the client.
const (
	StageDecode Stage = iota
	StageQueue
	StageEngine
	StageWALCommit
	StageAck

	// NumStages sizes per-stage arrays.
	NumStages int = iota
)

// stageNames are the {stage=...} label values.
var stageNames = [NumStages]string{"decode", "queue", "engine", "wal_commit", "ack"}

// String returns the stage's metric label value.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Sampler is a deterministic 1-in-N selector: of every n consecutive Hit
// calls, exactly one returns true, at a fixed phase derived from the seed.
// Determinism is what makes sampled traces test-assertable: the same seed
// and the same call count always select the same ticks. Concurrent use is
// safe; the counter is a single atomic.
type Sampler struct {
	n     uint64
	phase uint64
	ctr   atomic.Uint64
}

// NewSampler returns a sampler hitting once every n calls (n <= 1 hits every
// call; use nil or n = 0 via NeverSampler semantics to disable — a nil
// *Sampler's Hit is valid and always false).
func NewSampler(n int, seed uint64) *Sampler {
	if n < 1 {
		n = 1
	}
	un := uint64(n)
	return &Sampler{n: un, phase: seed % un}
}

// Hit advances the sampler and reports whether this call is the 1-in-N
// selection. Call it unconditionally (never short-circuit behind another
// condition), or the call count — and with it the selection — diverges
// between runs.
func (s *Sampler) Hit() bool {
	if s == nil {
		return false
	}
	return s.ctr.Add(1)%s.n == s.phase
}
