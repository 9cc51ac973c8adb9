package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"time"

	"tkcm/internal/shard"
)

// Rebalancer policy constants. The rebalancer is deliberately conservative:
// it moves at most one tenant per interval, and only when one shard is
// clearly hotter than the fleet — migration is cheap but not free (the
// tenant's requests park for two shard operations and a routing-table
// fsync), so oscillation costs more than mild imbalance.
const (
	// rebalanceRatio is how far above the mean per-shard tick rate the
	// hottest shard must sit before a move is considered.
	rebalanceRatio = 1.25
	// rebalanceMinGap is the minimum hot−cold rate gap (ticks per interval)
	// worth acting on; below it the imbalance is noise.
	rebalanceMinGap = 64
)

// MigrateTenant moves tenant id onto shard dst, serialized with checkpoint
// activity: holding ckMu guarantees no CheckpointAll can run while the
// tenant is invisible in transit — its listing would otherwise miss the
// tenant and prune the checkpoint and write-ahead log that make the
// migration crash-safe. Returns the source shard.
func (s *Server) MigrateTenant(ctx context.Context, id string, dst int) (int, error) {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	return s.m.Migrate(ctx, id, dst)
}

// migrateRequest is the POST /v1/tenants/{id}/migrate body. Shard is a
// pointer so "shard": 0 and a missing field are distinguishable.
type migrateRequest struct {
	Shard *int `json:"shard"`
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req migrateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if req.Shard == nil {
		writeError(w, http.StatusBadRequest, "body must carry the destination: {\"shard\": n}")
		return
	}
	// The move should complete even if the client hangs up mid-way: a
	// half-cancelled migration rolls back cleanly, but finishing it is
	// cheaper and leaves no work undone.
	src, err := s.MigrateTenant(context.WithoutCancel(r.Context()), id, *req.Shard)
	if err != nil {
		// statusFor's default 400 is for malformed input; a migration can
		// also fail on server-side faults (hydrating a parked tenant, the
		// WAL handoff, routing-table I/O), which must report as 500 or the
		// caller will treat an out-of-disk condition as its own bad request.
		status := statusFor(err)
		if status == http.StatusBadRequest && !errors.Is(err, shard.ErrBadShard) && !errors.Is(err, shard.ErrBadTable) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "migrating tenant %q: %v", id, err)
		return
	}
	s.log.Info("tenant migrated", "tenant", id, "from", src, "to", *req.Shard)
	writeJSON(w, http.StatusOK, map[string]any{"tenant": id, "from": src, "to": *req.Shard})
}

// routingDoc is the GET /v1/cluster/routing response.
type routingDoc struct {
	shard.RoutingInfo
	// MigrationsTotal counts completed tenant migrations since start.
	MigrationsTotal uint64 `json:"migrations_total"`
	// Imbalance is the rebalancer's last per-shard tick-rate imbalance
	// sample (max/mean; 1.0 = balanced, 0 = no traffic observed yet).
	Imbalance float64 `json:"imbalance"`
}

func (s *Server) handleRouting(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, routingDoc{
		RoutingInfo:     s.m.RoutingInfo(),
		MigrationsTotal: s.m.Migrations(),
		Imbalance:       s.imbalanceValue(),
	})
}

// imbalanceValue reads the last sampled imbalance gauge.
func (s *Server) imbalanceValue() float64 {
	return math.Float64frombits(s.imbalance.Load())
}

// tenantRate is one tenant's tick rate over the last rebalance interval,
// with the shard currently hosting it.
type tenantRate struct {
	id    string
	shard int
	rate  float64
}

// planRebalance decides the next move from per-shard tick rates and
// per-tenant rates: when the hottest shard runs at least rebalanceRatio
// above the mean and the hot−cold gap is worth acting on, it picks the
// tenant on the hot shard whose rate is closest to half the gap — the move
// that most evens the pair without overshooting — destined for the coldest
// shard. Pure function, unit-tested directly.
func planRebalance(shardRates []float64, tenants []tenantRate) (id string, dst int, ok bool) {
	if len(shardRates) < 2 {
		return "", 0, false
	}
	hot, cold := 0, 0
	var total float64
	for i, r := range shardRates {
		total += r
		if r > shardRates[hot] {
			hot = i
		}
		if r < shardRates[cold] {
			cold = i
		}
	}
	mean := total / float64(len(shardRates))
	gap := shardRates[hot] - shardRates[cold]
	if mean <= 0 || shardRates[hot] < rebalanceRatio*mean || gap < rebalanceMinGap {
		return "", 0, false
	}
	best := -1
	target := gap / 2
	for i, t := range tenants {
		if t.shard != hot || t.rate <= 0 || t.rate >= gap {
			// Moving a tenant hotter than the whole gap would just swap
			// which shard is overloaded.
			continue
		}
		if best < 0 || math.Abs(t.rate-target) < math.Abs(tenants[best].rate-target) {
			best = i
		}
	}
	if best < 0 {
		return "", 0, false
	}
	return tenants[best].id, cold, true
}

// rebalanceOnce samples per-shard and per-tenant tick rates against the
// previous sample, publishes the imbalance gauge, and executes at most one
// planned migration. The first call only establishes the baseline.
func (s *Server) rebalanceOnce(ctx context.Context) {
	stats := s.m.Stats()
	infos, err := s.m.Tenants(ctx)
	if err != nil {
		s.log.Error("rebalance: listing tenants", "err", err)
		return
	}
	shardTicks := make([]uint64, len(stats))
	for _, st := range stats {
		shardTicks[st.Shard] = st.Ticks
	}
	tenantTicks := make(map[string]uint64, len(infos))
	for _, info := range infos {
		tenantTicks[info.ID] = info.Seq
	}
	prevShards, prevTenants := s.rbShards, s.rbTenants
	s.rbShards, s.rbTenants = shardTicks, tenantTicks
	if prevShards == nil || len(prevShards) != len(shardTicks) {
		return // first sample (or shard count changed): baseline only
	}

	rates := make([]float64, len(shardTicks))
	var total, max float64
	for i := range shardTicks {
		rates[i] = float64(shardTicks[i] - prevShards[i])
		total += rates[i]
		if rates[i] > max {
			max = rates[i]
		}
	}
	imbalance := 0.0
	if total > 0 {
		imbalance = max / (total / float64(len(rates)))
	}
	s.imbalance.Store(math.Float64bits(imbalance))

	tenants := make([]tenantRate, 0, len(infos))
	for _, info := range infos {
		prev, seen := prevTenants[info.ID]
		if !seen {
			continue // a tenant created this interval has no rate yet
		}
		tenants = append(tenants, tenantRate{id: info.ID, shard: info.Shard, rate: float64(info.Seq - prev)})
	}
	id, dst, ok := planRebalance(rates, tenants)
	if !ok {
		return
	}
	s.log.Info("rebalancing hot shard", "tenant", id, "to", dst, "imbalance", imbalance)
	if _, err := s.MigrateTenant(ctx, id, dst); err != nil {
		s.log.Error("rebalance migration", "tenant", id, "to", dst, "err", err)
	}
}

// StartRebalancer launches the periodic load-aware rebalancer (no-op when
// the server was built without a rebalance interval). It stops with the
// checkpoint loop during Shutdown.
func (s *Server) StartRebalancer() {
	if s.rbInterval <= 0 {
		return
	}
	s.ckWG.Add(1)
	go func() {
		defer s.ckWG.Done()
		t := time.NewTicker(s.rbInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopCk:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), s.rbInterval)
				s.rebalanceOnce(ctx)
				cancel()
			}
		}
	}()
}
