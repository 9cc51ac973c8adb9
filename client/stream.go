package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"tkcm/internal/wire"
)

// StreamOptions tunes a TickStream. The zero value is usable.
type StreamOptions struct {
	// MaxInFlight bounds rows sent but not yet acknowledged (default 128).
	// Send blocks at the bound — the client-side backpressure that keeps a
	// fast producer from outrunning the server and bounds replay cost after
	// a reconnect.
	MaxInFlight int
	// Sequenced assigns each row a sequence number continuing the server's
	// (fetched when the stream opens). Sequenced streams survive reconnects
	// exactly-once: unacknowledged rows are replayed and the server
	// idempotently acks those it already applied. Requires this stream to
	// be the tenant's only writer.
	Sequenced bool
	// MaxAttempts bounds consecutive failed reconnect attempts before the
	// stream fails permanently (default 40). The counter resets whenever a
	// connection delivers an ack.
	MaxAttempts int
	// RetryBackoff is the pause between reconnect attempts (default 250ms).
	RetryBackoff time.Duration
	// Batch, when > 1, coalesces up to this many queued rows into one batch
	// line ({"seq":N,"rows":[...]}), which the server applies in one shard
	// operation and one write-ahead-log record — the amortization that
	// multiplies throughput under backpressure. Acks still arrive one per
	// row, so Recv is oblivious to batching. A producer running in lock-step
	// with the server sends plain single-row lines as before; batches form
	// exactly when rows queue up.
	Batch int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 40
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	return o
}

// Ack is the server's acknowledgement of one row. Once received, the row is
// applied — and, on a server running with a write-ahead log, durable: it
// survives even a kill -9 of the server.
type Ack struct {
	// Tick is the engine's window tick index after the row.
	Tick int `json:"tick"`
	// Seq is the row's engine sequence number.
	Seq uint64 `json:"seq"`
	// Values is the completed row: the sent row with every missing value
	// imputed. The server sends only the imputed values; the stream fills
	// them into its own copy of the sent row, which the caller then owns.
	// Nil for a Duplicate ack.
	Values []float64 `json:"values"`
	// Imputed lists the indices that were missing in the input.
	Imputed []int `json:"imputed"`
	// Duplicate reports the row was already applied before (it was replayed
	// across a reconnect); Values is nil then.
	Duplicate bool `json:"duplicate"`
}

// pendingRow is one sent-but-unacked row, retained for replay and, once its
// ack arrives, completed in place into that ack's Values.
type pendingRow struct {
	seq     uint64 // 0 when unsequenced
	values  []float64
	missing int // NaN cells in values
}

// TickStream is one full-duplex NDJSON tick stream to a tenant. Send and
// Recv may be used from different goroutines (one sender, one receiver);
// acknowledgements arrive in send order, exactly one per sent row.
type TickStream struct {
	c      *Client
	tenant string
	opts   StreamOptions

	ctx    context.Context
	cancel context.CancelFunc

	// tokens holds one entry per in-flight row; acks buffers delivered
	// acknowledgements for Recv.
	tokens chan struct{}
	acks   chan Ack

	mu       sync.Mutex
	unacked  []pendingRow
	writeIdx int // next unacked row the current connection's writer sends
	nextSeq  uint64
	closing  bool
	err      error // terminal outcome; io.EOF = clean close
	acked    bool  // an ack arrived on the current connection

	notify    chan struct{} // kicks the writer after Send/Close
	done      chan struct{} // closed on terminal failure or clean shutdown
	doneOnce  sync.Once
	flushed   chan struct{} // closed when closing and nothing is unacked
	flOnce    sync.Once
	closeDrop chan struct{} // closed by Close: overflow acks may be dropped
	cdOnce    sync.Once
	wg        sync.WaitGroup
}

// ErrStreamBroken wraps the cause when a stream fails permanently with rows
// still unacknowledged; those rows may or may not have been applied.
var ErrStreamBroken = errors.New("tkcm: tick stream broken")

// OpenStream opens a tick stream to tenant. With opts.Sequenced the current
// sequence number is fetched first, so opening fails fast when the tenant
// does not exist. Always Close the stream; cancelling ctx aborts it along
// with every blocked Send/Recv.
func (c *Client) OpenStream(ctx context.Context, tenant string, opts StreamOptions) (*TickStream, error) {
	opts = opts.withDefaults()
	sctx, cancel := context.WithCancel(ctx)
	s := &TickStream{
		c:         c,
		tenant:    tenant,
		opts:      opts,
		ctx:       sctx,
		cancel:    cancel,
		tokens:    make(chan struct{}, opts.MaxInFlight),
		acks:      make(chan Ack, opts.MaxInFlight),
		notify:    make(chan struct{}, 1),
		done:      make(chan struct{}),
		flushed:   make(chan struct{}),
		closeDrop: make(chan struct{}),
	}
	if opts.Sequenced {
		info, err := c.GetTenant(ctx, tenant)
		if err != nil {
			cancel()
			return nil, err
		}
		s.nextSeq = info.Seq + 1
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// Send queues one row (NaN marks a missing value) and returns once it is
// accepted into the in-flight window — NOT once it is acknowledged; consume
// Recv for that. Send blocks while MaxInFlight rows are outstanding. A nil
// error means the row will be delivered or the stream will report a
// terminal error; it never silently disappears.
func (s *TickStream) Send(ctx context.Context, values []float64) error {
	// Refuse ±Inf up front: the server would reject the row anyway, and the
	// wire format cannot even represent it (strconv would emit +Inf, which
	// is not JSON and would corrupt the NDJSON framing for batched rows).
	missing := 0
	for i, v := range values {
		if math.IsInf(v, 0) {
			return fmt.Errorf("tkcm: row value %d is %v: non-finite measurements are not accepted (use NaN for missing)", i, v)
		}
		if math.IsNaN(v) {
			missing++
		}
	}
	select {
	case s.tokens <- struct{}{}:
	case <-s.done:
		return s.terminalErr()
	case <-ctx.Done():
		return ctx.Err()
	case <-s.ctx.Done():
		return s.terminalErr()
	}
	s.mu.Lock()
	if s.err != nil || s.closing {
		err := s.err
		s.mu.Unlock()
		<-s.tokens
		if err == nil {
			err = errors.New("tkcm: Send on closed stream")
		}
		return err
	}
	row := pendingRow{values: append([]float64(nil), values...), missing: missing}
	if s.opts.Sequenced {
		row.seq = s.nextSeq
		s.nextSeq++
	}
	s.unacked = append(s.unacked, row)
	s.mu.Unlock()
	s.kick()
	return nil
}

// Recv returns the next acknowledgement, in send order. After Close, Recv
// drains the remaining acks and then returns io.EOF; after a permanent
// failure it returns the terminal error (wrapping ErrStreamBroken when
// unacknowledged rows were lost).
func (s *TickStream) Recv(ctx context.Context) (Ack, error) {
	select {
	case a := <-s.acks:
		return a, nil
	case <-ctx.Done():
		return Ack{}, ctx.Err()
	case <-s.done:
		// Acks buffered before termination still count.
		select {
		case a := <-s.acks:
			return a, nil
		default:
		}
		return Ack{}, s.terminalErr()
	}
}

// Close flushes queued rows, waits for their acknowledgements to arrive
// (consume them with Recv — buffered acks survive Close), and shuts the
// stream down. Returns nil on a clean flush, or the terminal error.
func (s *TickStream) Close() error {
	s.mu.Lock()
	s.closing = true
	drained := len(s.unacked) == 0
	s.mu.Unlock()
	if drained {
		s.flOnce.Do(func() { close(s.flushed) })
	}
	// From here on, a full ack buffer no longer blocks delivery: a caller
	// that stopped consuming Recv must not wedge the flush (acks the
	// buffer cannot hold are dropped; the rows themselves are acked and
	// durable server-side).
	s.cdOnce.Do(func() { close(s.closeDrop) })
	s.kick()
	select {
	case <-s.flushed:
		s.finish(io.EOF)
	case <-s.done:
		// run() already recorded the terminal outcome.
	case <-s.ctx.Done():
		// Cancelled mid-flush: rows may still be unacknowledged, and a
		// clean io.EOF here would report them as flushed and durable.
		// finish wraps the cause in ErrStreamBroken when any remain.
		s.mu.Lock()
		drained := len(s.unacked) == 0
		s.mu.Unlock()
		if drained {
			s.finish(io.EOF)
		} else {
			s.finish(s.ctx.Err())
		}
	}
	s.cancel()
	s.wg.Wait()
	if err := s.terminalErr(); err != io.EOF {
		return err
	}
	return nil
}

func (s *TickStream) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (s *TickStream) terminalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		return s.ctx.Err()
	}
	return s.err
}

// finish records the stream's terminal outcome exactly once.
func (s *TickStream) finish(err error) {
	s.mu.Lock()
	if s.err == nil {
		if err != io.EOF && len(s.unacked) > 0 {
			err = fmt.Errorf("%w (%d rows unacknowledged): %w", ErrStreamBroken, len(s.unacked), err)
		}
		s.err = err
	}
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
}

// run owns the transport: it dials connections, replays unacknowledged rows
// onto each new one, and retries with backoff while failures stay
// retryable (sequenced streams only — without sequence numbers a replay
// could double-apply rows).
func (s *TickStream) run() {
	defer s.wg.Done()
	attempts := 0
	for {
		err, retryable := s.connect()
		if err == nil {
			s.finish(io.EOF)
			return
		}
		s.mu.Lock()
		if s.acked {
			attempts = 0
			s.acked = false
		}
		s.mu.Unlock()
		if !retryable || !s.opts.Sequenced {
			s.finish(err)
			return
		}
		attempts++
		if attempts >= s.opts.MaxAttempts {
			s.finish(fmt.Errorf("tkcm: giving up after %d reconnect attempts: %w", attempts, err))
			return
		}
		select {
		case <-time.After(s.opts.RetryBackoff):
		case <-s.ctx.Done():
			s.finish(s.ctx.Err())
			return
		}
	}
}

// serverLine is one NDJSON response line: an ack, or a terminal error.
// encoding/json matches keys to field names case-insensitively, so
// wire.Ack's fields take the ack's keys.
type serverLine struct {
	wire.Ack
	Error string `json:"error"`
	Retry bool   `json:"retry"`
}

// connect runs one connection to completion. A nil error is a clean
// shutdown (Close flushed everything); otherwise retryable reports whether
// replaying on a fresh connection may succeed.
func (s *TickStream) connect() (err error, retryable bool) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost,
		s.c.base+"/v1/tenants/"+url.PathEscape(s.tenant)+"/ticks", pr)
	if err != nil {
		return fmt.Errorf("tkcm: %w", err), false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	s.mu.Lock()
	s.writeIdx = 0 // replay every unacknowledged row onto this connection
	s.mu.Unlock()

	connDead := make(chan struct{})
	var dieOnce sync.Once
	die := func() { dieOnce.Do(func() { close(connDead) }) }
	writerDone := make(chan struct{})
	go s.writeLoop(pw, connDead, writerDone)
	defer func() { die(); pw.CloseWithError(err); <-writerDone }()

	// Do returns when response headers arrive — which the full-duplex
	// server sends with the first ack (or a pre-stream error), while the
	// writer above is already pumping rows.
	resp, herr := s.c.hc.Do(req)
	if herr != nil {
		if s.ctx.Err() != nil {
			return s.ctx.Err(), false
		}
		return fmt.Errorf("tkcm: %w", herr), true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		aerr := decodeError(resp)
		// 503 = draining or shard manager closed: the server is going down
		// or rebooting; replay may succeed against its successor. The body's
		// retry flag covers the rest (e.g. a durability hiccup on the first
		// row, marked recoverable just like the same failure mid-stream).
		var apiErr *APIError
		retry := resp.StatusCode == http.StatusServiceUnavailable ||
			(errors.As(aerr, &apiErr) && apiErr.Retry)
		return aerr, retry
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20) // bufio's 4 KiB, doubling per longer line
	var wa wire.Ack
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// Hot path: the strict single-pass parser handles the exact ack
		// shape the server emits; error lines and anything unusual fall back
		// to encoding/json below. deliver is done with the parser's scratch
		// before the next line is parsed.
		if wire.ParseAck(line, &wa) {
			if derr := s.deliver(&wa); derr != nil {
				return derr, false
			}
			continue
		}
		var sl serverLine
		if jerr := json.Unmarshal(line, &sl); jerr != nil {
			return fmt.Errorf("tkcm: decoding ack line: %w", jerr), false
		}
		if sl.Error != "" {
			return &APIError{StatusCode: http.StatusOK, Message: sl.Error, Retry: sl.Retry}, sl.Retry
		}
		if derr := s.deliver(&sl.Ack); derr != nil {
			return derr, false
		}
	}
	if serr := sc.Err(); serr != nil {
		return fmt.Errorf("tkcm: reading acks: %w", serr), true
	}
	// Clean EOF: the server ended the stream. If we were closing and
	// everything is acked this is the expected end; otherwise treat it as a
	// drop and replay.
	s.mu.Lock()
	clean := s.closing && len(s.unacked) == 0
	s.mu.Unlock()
	if clean {
		return nil, false
	}
	return errors.New("tkcm: server ended the tick stream"), true
}

// writeLoop streams queued rows onto one connection, replaying from
// writeIdx. It owns pw and closes it when a graceful Close has flushed
// every row or the stream's context ends.
func (s *TickStream) writeLoop(pw *io.PipeWriter, connDead <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var buf []byte
	for {
		s.mu.Lock()
		for s.writeIdx >= len(s.unacked) {
			if s.closing || s.err != nil {
				s.mu.Unlock()
				pw.Close() // EOF tells the server we are done sending
				return
			}
			s.mu.Unlock()
			select {
			case <-s.notify:
			case <-connDead:
				return
			case <-s.ctx.Done():
				// The transport's body reader blocks on the pipe until it is
				// closed, and hc.Do does not return before that read does.
				pw.CloseWithError(s.ctx.Err())
				return
			}
			s.mu.Lock()
		}
		// Batch every queued row into one pipe write: the pipe is an
		// unbuffered synchronous handoff to the HTTP transport, so per-row
		// writes would cost a goroutine park/wake and a tiny TCP chunk each
		// — the difference between ~5k and ~50k rows/s per connection.
		buf = buf[:0]
		for s.writeIdx < len(s.unacked) && len(buf) < 32<<10 {
			// With Batch > 1 and several rows queued, fold them into one
			// batch line — rows in unacked always carry consecutive seqs, the
			// shape the server's batch ingest requires. A lone row keeps the
			// plain single-row format.
			if n := len(s.unacked) - s.writeIdx; s.opts.Batch > 1 && n > 1 {
				if n > s.opts.Batch {
					n = s.opts.Batch
				}
				rows := s.unacked[s.writeIdx : s.writeIdx+n]
				s.writeIdx += n
				buf = encodeBatch(buf, rows[0].seq, rows)
				continue
			}
			row := s.unacked[s.writeIdx]
			s.writeIdx++
			buf = encodeRow(buf, row.seq, row.values)
		}
		s.mu.Unlock()

		if _, err := pw.Write(buf); err != nil {
			return // connection is dead; connect's reader handles the retry
		}
	}
}

// deliver matches one ack line against the oldest unacknowledged row,
// completes that row with the line's imputed cells, hands the token back,
// and buffers the ack for Recv. It keeps none of wa's slices.
func (s *TickStream) deliver(wa *wire.Ack) error {
	s.mu.Lock()
	if len(s.unacked) == 0 {
		s.mu.Unlock()
		return fmt.Errorf("tkcm: ack for seq %d with no row outstanding", wa.Seq)
	}
	head := s.unacked[0]
	if head.seq != 0 && wa.Seq != head.seq {
		s.mu.Unlock()
		return fmt.Errorf("tkcm: ack seq %d does not match oldest in-flight row %d", wa.Seq, head.seq)
	}
	a := Ack{Tick: wa.Tick, Seq: wa.Seq, Duplicate: wa.Duplicate}
	if !wa.Duplicate {
		if err := head.complete(wa.Values, wa.Imputed); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("tkcm: ack for seq %d does not fit the oldest in-flight row: %w", wa.Seq, err)
		}
		a.Values = head.values
		a.Imputed = append([]int(nil), wa.Imputed...)
	}
	s.unacked = s.unacked[1:]
	if s.writeIdx > 0 {
		s.writeIdx--
	}
	s.acked = true
	flushedNow := s.closing && len(s.unacked) == 0
	s.mu.Unlock()

	// Buffer the ack for Recv. Prefer delivery; once Close has been called
	// and the buffer is full, drop instead of blocking — otherwise a caller
	// that abandoned Recv would deadlock the flush.
	select {
	case s.acks <- a:
	default:
		select {
		case s.acks <- a:
		case <-s.closeDrop:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	<-s.tokens
	if flushedNow {
		s.flOnce.Do(func() { close(s.flushed) })
	}
	return nil
}

// complete writes an ack's imputed values into the row, after checking that
// the ack names exactly the row's missing cells: one value per index, every
// index in range, missing (NaN) in the sent row and named once, and every
// missing cell named. On an unsequenced stream this is the only proof that
// the ack answers this row. A refused ack fails the stream, so the marks a
// refusal leaves behind are never replayed.
func (r pendingRow) complete(values []float64, imputed []int) error {
	if len(values) != len(imputed) {
		return fmt.Errorf("%d values for %d imputed cells", len(values), len(imputed))
	}
	if len(imputed) != r.missing {
		return fmt.Errorf("%d cells imputed, %d missing", len(imputed), r.missing)
	}
	// Send refuses ±Inf, so +Inf marks the cells already named.
	for _, c := range imputed {
		switch {
		case c < 0 || c >= len(r.values):
			return fmt.Errorf("cell %d imputed in a row of %d", c, len(r.values))
		case math.IsInf(r.values[c], 1):
			return fmt.Errorf("cell %d imputed twice", c)
		case !math.IsNaN(r.values[c]):
			return fmt.Errorf("cell %d imputed but not missing", c)
		}
		r.values[c] = math.Inf(1)
	}
	for x, c := range imputed {
		r.values[c] = values[x]
	}
	return nil
}

// encodeBatch appends one NDJSON batch line to dst: seq numbers the first
// row, and each row is encoded like a values array.
func encodeBatch(dst []byte, seq uint64, rows []pendingRow) []byte {
	dst = appendLineHead(dst, seq, "rows")
	dst = append(dst, '[')
	for j, row := range rows {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, row.values)
	}
	return append(dst, "]}\n"...)
}

// encodeRow appends one NDJSON input line to dst.
func encodeRow(dst []byte, seq uint64, values []float64) []byte {
	dst = appendLineHead(dst, seq, "values")
	dst = appendRow(dst, values)
	return append(dst, "}\n"...)
}

// appendLineHead opens an input line up to its key's value: {"seq":N,"key":
// with the seq omitted when 0 (unsequenced).
func appendLineHead(dst []byte, seq uint64, key string) []byte {
	dst = append(dst, '{')
	if seq > 0 {
		dst = append(dst, `"seq":`...)
		dst = strconv.AppendUint(dst, seq, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, `":`...)
}

// appendRow appends one row as a JSON array. NaN becomes null, the wire
// format's missing-value marker; every other value is written as
// encoding/json writes it (wire.AppendFloat), which the server reads back
// bit for bit. Send has already refused ±Inf.
func appendRow(dst []byte, values []float64) []byte {
	dst = append(dst, '[')
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsNaN(v) {
			dst = append(dst, "null"...)
		} else {
			dst = wire.AppendFloat(dst, v)
		}
	}
	return append(dst, ']')
}
