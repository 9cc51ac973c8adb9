package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tkcm/client"
	"tkcm/internal/shard"
)

var clockBase = time.Now()

// mono is the benchmark's clock: monotonic nanoseconds since start.
func mono() int64 { return int64(time.Since(clockBase)) }

// tenantID names tenant i so that tenants alternate between the shards
// under the default hash route ("one tenant per shard" for two tenants).
func tenantID(i int) string {
	tbl := shard.NewTable(numShards)
	for salt := 0; ; salt++ {
		id := fmt.Sprintf("t%02d-%d", i, salt)
		if tbl.ShardFor(id) == i%numShards {
			return id
		}
	}
}

// tenantIndex recovers i from tenantID(i) (-1 when id is not one).
func tenantIndex(id string) int {
	num, _, ok := strings.Cut(strings.TrimPrefix(id, "t"), "-")
	if !ok {
		return -1
	}
	i, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return i
}

// tenant is the benchmark's view of one tenant: the next seq to send and
// the hash of every ack received, indexed by seq-1, for the reference check.
type tenant struct {
	idx    int
	id     string
	next   uint64 // seq of the next row to send
	hashes []uint64
	broken error // a stream failure: no more rows are sent to this tenant
	row    []float64

	// Per-row clocks for the tick-stream workloads, indexed by seq-1 and
	// sized before set-up: due and sent are written by the sender, ack by
	// the receiver.
	due, sent, ack []int64
}

// ackHash digests everything an ack promises: window tick, completed
// values (bit patterns) and imputed indices.
func ackHash(tick int, values []float64, imputed []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(tick))
	put(uint64(len(values)))
	for _, v := range values {
		put(math.Float64bits(v))
	}
	for _, i := range imputed {
		put(uint64(i))
	}
	return h.Sum64()
}

// runner drives one workload through the client package.
type runner struct {
	w  *workload
	g  *gen
	st *stack
	tr *tracer

	tenants []*tenant
	zipfCum []float64 // cold_tenants' burst-target weights

	mu       sync.Mutex
	problems []string

	attempted atomic.Int64
	acks      atomic.Int64 // accepted acks, for the phase samplers
	dups      atomic.Int64
	// sse and cells accumulate the imputation error against the generator's
	// ground truth while measuring is set.
	measuring atomic.Bool
	sseMu     sync.Mutex
	sse       float64
	cells     int
	panicAt   string // test hook: panic in the named phase
}

func (r *runner) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkAck validates ack a against the row t sent with seq want and records
// its hash; it reports whether the ack is acceptable.
func (r *runner) checkAck(t *tenant, a client.Ack, want uint64) bool {
	if a.Duplicate {
		r.dups.Add(1)
		r.problem("tenant %s: duplicate ack for seq %d", t.id, a.Seq)
		return false
	}
	if a.Seq != want {
		r.problem("tenant %s: ack seq %d, want %d", t.id, a.Seq, want)
		return false
	}
	if uint64(len(t.hashes)) != want-1 {
		r.problem("tenant %s: ack seq %d out of order (%d acked)", t.id, want, len(t.hashes))
		return false
	}
	t.hashes = append(t.hashes, ackHash(a.Tick, a.Values, a.Imputed))
	r.acks.Add(1)
	if r.measuring.Load() && len(a.Imputed) > 0 {
		var sse float64
		for _, j := range a.Imputed {
			d := a.Values[j] - r.g.truth(t.idx, j, want)
			sse += d * d
		}
		r.sseMu.Lock()
		r.sse += sse
		r.cells += len(a.Imputed)
		r.sseMu.Unlock()
	}
	return true
}

// guard runs fn, turning a panic into an error so every exit path still
// reaches the stack teardown.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// group runs functions concurrently and returns their joined errors.
func group(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = guard(fn)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// createTenants creates every tenant with the workload's config; each
// create writes the tenant's base checkpoint before it returns.
func (r *runner) createTenants(ctx context.Context) error {
	names := streamNames(r.w.streams)
	cfg := r.w.cfg
	for _, t := range r.tenants {
		sp := r.tr.begin("client.CreateTenant", t.idx, 0, -1)
		err := r.st.cl.CreateTenant(ctx, t.id, client.CreateTenantRequest{Streams: names, Config: &cfg})
		r.tr.end(sp, 0)
		if err != nil {
			return fmt.Errorf("creating tenant %s: %w", t.id, err)
		}
	}
	return nil
}

// ---- Long-lived tick streams (ingest, impute) ----

// feed is one tenant's sequenced tick stream, open for the whole run, with
// its receiver goroutine.
type feed struct {
	r     *runner
	t     *tenant
	ts    *client.TickStream
	acked atomic.Uint64 // acks received
	sentN uint64        // rows sent; written by the sending goroutine only
	ctx   context.Context
	done  chan error
}

func (r *runner) openFeed(ctx context.Context, t *tenant) (*feed, error) {
	sp := r.tr.begin("client.OpenStream", t.idx, 0, -1)
	ts, err := r.st.cl.OpenStream(ctx, t.id, client.StreamOptions{
		Sequenced: true, Batch: r.w.batch, MaxInFlight: r.w.inflight, MaxAttempts: 1,
	})
	r.tr.end(sp, 0)
	if err != nil {
		return nil, fmt.Errorf("opening stream to %s: %w", t.id, err)
	}
	f := &feed{r: r, t: t, ts: ts, ctx: ctx, done: make(chan error, 1)}
	first := t.next
	go func() { f.done <- guard(func() error { return f.receive(first) }) }()
	return f, nil
}

// receive consumes the stream's acks, the first of which is for seq want.
func (f *feed) receive(want uint64) error {
	for {
		sp := f.r.tr.begin("client.Recv", f.t.idx, want, -1)
		a, err := f.ts.Recv(f.ctx)
		now := mono()
		f.r.tr.end(sp, 1)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if i := int(want - 1); i < len(f.t.ack) {
			f.t.ack[i] = now
		}
		f.r.checkAck(f.t, a, want)
		want++
		f.acked.Add(1)
	}
}

// send sends the tenant's next row, recording its clocks.
//
// A stream failure is not retried: it fail-stops the tenant for the rest
// of the run, and every row due to it from then on counts as attempted and
// never acked, so the run reports it as failed rows.
func (f *feed) send(ctx context.Context, due int64) error {
	t := f.t
	f.r.attempted.Add(1)
	if t.broken != nil {
		return nil
	}
	seq := t.next
	f.r.g.row(t.idx, seq, t.row)
	sp := f.r.tr.begin("client.Send", t.idx, seq, -1)
	now := mono()
	if i := int(seq - 1); i < len(t.due) {
		t.due[i] = due
		t.sent[i] = now
	}
	err := f.ts.Send(ctx, t.row)
	f.r.tr.end(sp, 1)
	if err != nil {
		return f.fail(ctx, err)
	}
	t.next++
	f.sentN++
	return nil
}

// fail records a stream failure and fail-stops the tenant; only the run's
// own cancellation is returned as an error.
func (f *feed) fail(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	f.t.broken = err
	f.r.problem("tenant %s: %v", f.t.id, err)
	return nil
}

// waitAcked blocks until every row sent on f is acknowledged. Call it from
// the goroutine that sends, or after the senders have been joined.
func (f *feed) waitAcked(ctx context.Context) error {
	for f.t.broken == nil && f.acked.Load() < f.sentN {
		select {
		case err := <-f.done:
			f.done <- err
			if err == nil {
				err = errors.New("stream ended early")
			}
			return f.fail(ctx, err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// errCloseHung reports a tick stream whose Close did not return after the
// run was cancelled. client.TickStream.Close can block forever when the
// stream's context is cancelled before the server's first ack: the HTTP
// transport's body writer then waits on a request-body pipe that only the
// blocked connect would close. The benchmark abandons such a stream (its
// goroutines end with the process) so that every exit path still tears the
// stack down.
var errCloseHung = errors.New("tick stream Close did not return after cancellation")

// closeStream closes ts, giving up one second after ctx is done.
func closeStream(ctx context.Context, ts *client.TickStream) error {
	done := make(chan error, 1)
	go func() { done <- ts.Close() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		return errCloseHung
	}
}

// close flushes and closes the stream and waits for its receiver.
func (f *feed) close() error {
	sp := f.r.tr.begin("client.Close", f.t.idx, 0, -1)
	err := closeStream(f.ctx, f.ts)
	f.r.tr.end(sp, 0)
	rerr := <-f.done
	f.done <- rerr
	return errors.Join(err, rerr)
}

// warmFeeds sends the warm-up rows on every feed as fast as the in-flight
// window allows and waits for their acks.
func (r *runner) warmFeeds(ctx context.Context, feeds []*feed) error {
	fns := make([]func() error, len(feeds))
	for i, f := range feeds {
		fns[i] = func() error {
			for f.t.next <= uint64(r.w.warm) {
				if err := f.send(ctx, mono()); err != nil {
					return err
				}
			}
			return f.waitAcked(ctx)
		}
	}
	return group(fns...)
}

// openLoopStats are one fixed-rate phase's generator-side numbers.
type openLoopStats struct {
	start, end int64
	firstSeq   []uint64 // per tenant, first seq of the phase
	lastSeq    []uint64 // per tenant, last seq of the phase
	backlogMax int64
	sendWaitNs int64 // total time Send blocked, summed over rows
	rows       int
}

// openLoop offers rows at the workload's fixed rate for dur: each tenant's
// rows are due at evenly spaced instants from a common start, and a late
// sender catches up by sending every row already due (the client batches
// them). Latency is charged from the due time.
func (r *runner) openLoop(ctx context.Context, feeds []*feed, dur time.Duration) (openLoopStats, error) {
	perTenant := r.w.rate / float64(len(feeds))
	n := int(perTenant * dur.Seconds())
	gap := float64(time.Second) / perTenant
	st := openLoopStats{firstSeq: make([]uint64, len(feeds)), lastSeq: make([]uint64, len(feeds))}
	st.start = mono() + int64(2*time.Millisecond)
	var backlog atomic.Int64
	fns := make([]func() error, len(feeds))
	for k, f := range feeds {
		st.firstSeq[k] = f.t.next
		fns[k] = func() error {
			if r.panicAt == "openloop" {
				panic("injected panic in the fixed-rate phase")
			}
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			acked0 := f.acked.Load()
			var maxBacklog int64
			for i := 0; i < n; i++ {
				due := st.start + int64(float64(i)*gap)
				if d := time.Duration(due - mono()); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				if b := int64(i) - int64(f.acked.Load()-acked0); b > maxBacklog {
					maxBacklog = b
				}
				if err := f.send(ctx, due); err != nil {
					return err
				}
			}
			storeMax(&backlog, maxBacklog)
			return f.waitAcked(ctx)
		}
	}
	err := group(fns...)
	for k, f := range feeds {
		st.lastSeq[k] = f.t.next - 1
	}
	st.rows = n * len(feeds)
	st.backlogMax = backlog.Load()
	return st, err
}

// rowTimes appends the phase's per-row clocks to out.
func (r *runner) rowTimes(st openLoopStats, out []rowTimes) []rowTimes {
	for k := range st.firstSeq {
		t := r.tenants[k]
		for seq := st.firstSeq[k]; seq <= st.lastSeq[k]; seq++ {
			i := seq - 1
			if int(i) >= len(t.ack) || t.ack[i] == 0 {
				continue
			}
			out = append(out, rowTimes{due: t.due[i], sent: t.sent[i], ack: t.ack[i]})
		}
	}
	return out
}

// closedLoop keeps every feed's in-flight window full for dur.
func (r *runner) closedLoop(ctx context.Context, feeds []*feed, dur time.Duration) error {
	end := mono() + int64(dur)
	fns := make([]func() error, len(feeds))
	for k, f := range feeds {
		fns[k] = func() error {
			for mono() < end && f.t.broken == nil {
				if err := f.send(ctx, mono()); err != nil {
					return err
				}
			}
			return f.waitAcked(ctx)
		}
	}
	return group(fns...)
}

// ---- Short bursts (cold_tenants) ----

// burstStats are one burst phase's generator-side numbers.
type burstStats struct {
	start      int64
	mu         sync.Mutex
	times      []rowTimes
	rows       int
	acked      atomic.Int64
	backlogMax atomic.Int64
}

// burstTenant is the tenant index of scheduled burst b: a Zipf draw over
// the cumulative weights cum that depends only on the seed and b.
func burstTenant(seed uint64, cum []float64, b int) int {
	return zipfPick(cum, unit(mix(seed, 5, uint64(b), 0, 0)))
}

// runBurst opens a sequenced stream to t, sends rows, receives their acks
// and closes it. Latency is charged from the burst's due time.
func (r *runner) runBurst(ctx context.Context, t *tenant, rows int, due int64, st *burstStats) error {
	if t.broken != nil {
		return nil
	}
	fail := func(err error) error {
		t.broken = err
		return fmt.Errorf("tenant %s: %w", t.id, err)
	}
	sp := r.tr.begin("client.OpenStream", t.idx, 0, -1)
	ts, err := r.st.cl.OpenStream(ctx, t.id, client.StreamOptions{
		Sequenced: true, Batch: r.w.batch, MaxInFlight: r.w.inflight, MaxAttempts: 1,
	})
	r.tr.end(sp, 0)
	if err != nil {
		return fail(err)
	}
	// The acks are received concurrently: a burst longer than the in-flight
	// window would otherwise block Send on acks nobody consumes.
	first := t.next
	lat := t.ack[:0]
	recvd := make(chan error, 1)
	go func() {
		recvd <- guard(func() error {
			for i := 0; i < rows; i++ {
				want := first + uint64(i)
				sp := r.tr.begin("client.Recv", t.idx, want, -1)
				a, err := ts.Recv(ctx)
				now := mono()
				r.tr.end(sp, 1)
				if err != nil {
					return fmt.Errorf("seq %d: %w", want, err)
				}
				r.checkAck(t, a, want)
				lat = append(lat, now)
				if st != nil {
					st.acked.Add(1)
				}
			}
			return nil
		})
	}()
	sent := t.sent[:0]
	var serr error
	for i := 0; i < rows; i++ {
		seq := t.next
		r.g.row(t.idx, seq, t.row)
		sp := r.tr.begin("client.Send", t.idx, seq, -1)
		serr = ts.Send(ctx, t.row)
		r.tr.end(sp, 1)
		if serr != nil {
			break
		}
		sent = append(sent, mono())
		t.next++
		r.attempted.Add(1)
	}
	t.sent = sent
	if serr != nil {
		closeStream(ctx, ts)
		<-recvd
		return fail(serr)
	}
	if err := <-recvd; err != nil {
		closeStream(ctx, ts)
		return fail(err)
	}
	t.ack = lat
	sp = r.tr.begin("client.Close", t.idx, 0, -1)
	err = closeStream(ctx, ts)
	r.tr.end(sp, 0)
	if err != nil {
		return fail(err)
	}
	if st != nil {
		st.mu.Lock()
		for i := range sent {
			st.times = append(st.times, rowTimes{due: due, sent: sent[i], ack: lat[i]})
		}
		st.rows += rows
		st.mu.Unlock()
	}
	return nil
}

// warmBursts ingests every tenant's warm-up rows in one burst each, one
// tenant at a time per connection slot; the residency cap parks all but the
// most recently warmed.
func (r *runner) warmBursts(ctx context.Context) error {
	fns := make([]func() error, maxConns)
	for slot := range fns {
		fns[slot] = func() error {
			for _, t := range r.tenants {
				if t.idx%maxConns == slot {
					if err := r.runBurst(ctx, t, r.w.warm, mono(), nil); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	return group(fns...)
}

// burstLoop runs dur's worth of scheduled bursts from *next on, appending
// their rows' clocks to times: burst b is due at start + (b-first)/burstRate.
// A tenant's bursts always run on the same connection slot (tenant index mod
// maxConns), so its sequenced stream is never shared.
func (r *runner) burstLoop(ctx context.Context, next *int, dur time.Duration, times []rowTimes) (*burstStats, error) {
	burstRate := r.w.rate / float64(r.w.burst)
	st := &burstStats{start: mono() + int64(2*time.Millisecond), times: times}
	n := r.w.burstsIn(dur)
	first := *next
	fns := make([]func() error, maxConns)
	for slot := range fns {
		fns[slot] = func() error {
			if r.panicAt == "openloop" {
				panic("injected panic in the fixed-rate phase")
			}
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for b := first; b < first+n; b++ {
				t := r.tenants[burstTenant(r.g.seed, r.zipfCum, b)]
				if t.idx%maxConns != slot {
					continue
				}
				if t.broken != nil {
					// A fail-stopped tenant's scheduled rows are failed rows.
					r.attempted.Add(int64(r.w.burst))
					continue
				}
				due := st.start + int64(float64(b-first)*float64(time.Second)/burstRate)
				if d := time.Duration(due - mono()); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				rowsDue := (int64(float64(mono()-st.start)*burstRate/float64(time.Second)) + 1) * int64(r.w.burst)
				storeMax(&st.backlogMax, rowsDue-st.acked.Load())
				if err := r.runBurst(ctx, t, r.w.burst, due, st); err != nil {
					r.problem("%v", err)
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	err := group(fns...)
	*next = first + n
	return st, err
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}
