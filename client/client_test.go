package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/server"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
)

// boot assembles a full serving stack (shards + WAL + checkpoints) over the
// given directories and serves it on l.
func boot(t *testing.T, l net.Listener, ckDir, walDir string) (*server.Server, *http.Server, *wal.Manager, *shard.Manager) {
	t.Helper()
	walMgr := wal.NewManager(walDir, wal.Options{SyncInterval: time.Millisecond})
	m := shard.New(shard.Options{Shards: 2, WAL: walMgr})
	srv := server.New(server.Options{Manager: m, CheckpointDir: ckDir, WAL: walMgr})
	if _, err := srv.RestoreFromCheckpoints(context.Background()); err != nil {
		t.Fatalf("restore: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l)
	return srv, hs, walMgr, m
}

func TestClientEndToEnd(t *testing.T) {
	walMgr := wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond})
	m := shard.New(shard.Options{Shards: 2, WAL: walMgr})
	srv := server.New(server.Options{Manager: m, CheckpointDir: t.TempDir(), WAL: walMgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer m.Close()
	defer walMgr.Close()

	ctx := context.Background()
	c := New(ts.URL)

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health: %+v, %v", h, err)
	}
	req := CreateTenantRequest{
		Streams: []string{"s", "r1", "r2", "r3"},
		Config:  &Config{K: 2, PatternLength: 3, D: 2, WindowLength: 32},
	}
	if err := c.CreateTenant(ctx, "e2e", req); err != nil {
		t.Fatalf("create: %v", err)
	}
	var apiErr *APIError
	if err := c.CreateTenant(ctx, "e2e", req); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %v", err)
	}

	st, err := c.OpenStream(ctx, "e2e", StreamOptions{Sequenced: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	go func() {
		for i := 0; i < n; i++ {
			row := []float64{20 + float64(i%5), 19, 21, 20.5}
			if i > 20 {
				row[0] = math.NaN()
			}
			if err := st.Send(ctx, row); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		ack, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ack.Seq != uint64(i+1) {
			t.Fatalf("ack %d: seq %d, want %d", i, ack.Seq, i+1)
		}
		if len(ack.Values) != 4 {
			t.Fatalf("ack %d: %d values", i, len(ack.Values))
		}
		if i > 20 && (len(ack.Imputed) != 1 || ack.Imputed[0] != 0 || math.IsNaN(ack.Values[0])) {
			t.Fatalf("ack %d: imputed %v values %v", i, ack.Imputed, ack.Values)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	info, err := c.GetTenant(ctx, "e2e")
	if err != nil || info.Seq != n {
		t.Fatalf("get tenant: %+v, %v", info, err)
	}
	infos, err := c.ListTenants(ctx)
	if err != nil || len(infos) != 1 || infos[0].ID != "e2e" {
		t.Fatalf("list: %+v, %v", infos, err)
	}
	if nck, err := c.Checkpoint(ctx); err != nil || nck != 1 {
		t.Fatalf("checkpoint: %d, %v", nck, err)
	}
	var snap bytes.Buffer
	if sz, err := c.Snapshot(ctx, "e2e", &snap); err != nil || sz == 0 {
		t.Fatalf("snapshot: %d, %v", sz, err)
	}
	eng, err := core.RestoreEngine(&snap)
	if err != nil {
		t.Fatalf("restoring downloaded snapshot: %v", err)
	}
	if eng.Seq() != n {
		t.Fatalf("downloaded snapshot seq %d, want %d", eng.Seq(), n)
	}
	eng.Close()
	if s, err := c.Metrics(ctx); err != nil || !bytes.Contains([]byte(s), []byte("tkcm_wal_appends_total")) {
		t.Fatalf("metrics: %v\n%s", err, s)
	}
	if err := c.DeleteTenant(ctx, "e2e"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.GetTenant(ctx, "e2e"); err == nil {
		t.Fatal("get after delete succeeded")
	}
}

// TestStreamReconnectReplays hard-stops the HTTP server mid-stream (no
// graceful shutdown, no final checkpoint — the WAL is the only thing
// covering acked rows), boots a fresh stack over the same directories and
// the same address, and requires the sequenced stream to deliver exactly
// one ack per row with nothing lost.
func TestStreamReconnectReplays(t *testing.T) {
	ckDir, walDir := t.TempDir(), t.TempDir()
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	_, hs1, wal1, _ := boot(t, l1, ckDir, walDir)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := New("http://" + addr)
	if err := c.CreateTenant(ctx, "re", CreateTenantRequest{
		Streams: []string{"a", "b", "c"},
		Config:  &Config{K: 2, PatternLength: 3, D: 2, WindowLength: 64},
	}); err != nil {
		t.Fatalf("create: %v", err)
	}

	st, err := c.OpenStream(ctx, "re", StreamOptions{Sequenced: true, MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	const total = 60
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			row := []float64{float64(i), float64(2 * i), float64(3 * i)}
			if err := st.Send(ctx, row); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	acked := make(map[uint64]int)
	killAfter := 20
	for i := 0; i < total; i++ {
		ack, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		acked[ack.Seq]++
		if len(acked) == killAfter && hs1 != nil {
			// Hard-stop: abort every connection, no drain, no checkpoint.
			hs1.Close()
			wal1.Close() // release the logs for the successor stack
			hs1 = nil
			l2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("rebinding %s: %v", addr, err)
			}
			_, hs2, wal2, m2 := boot(t, l2, ckDir, walDir)
			defer func() { hs2.Close(); m2.Close(); wal2.Close() }()
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for seq := uint64(1); seq <= total; seq++ {
		if acked[seq] != 1 {
			t.Fatalf("seq %d acked %d times (want exactly 1); acks: %v", seq, acked[seq], acked)
		}
	}
	info, err := c.GetTenant(ctx, "re")
	if err != nil || info.Seq != total {
		t.Fatalf("final tenant info: %+v, %v", info, err)
	}
}

func TestRecvAfterCloseDrainsThenEOF(t *testing.T) {
	walMgr := wal.NewManager(t.TempDir(), wal.Options{})
	m := shard.New(shard.Options{Shards: 1, WAL: walMgr})
	srv := server.New(server.Options{Manager: m, CheckpointDir: t.TempDir(), WAL: walMgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer m.Close()
	defer walMgr.Close()

	ctx := context.Background()
	c := New(ts.URL)
	if err := c.CreateTenant(ctx, "d", CreateTenantRequest{Streams: []string{"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(ctx, "d", StreamOptions{Sequenced: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Send(ctx, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- st.Close() }()
	got := 0
	for {
		_, err := st.Recv(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		got++
	}
	if got != 3 {
		t.Fatalf("drained %d acks, want 3", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSendRejectsInfinity: ±Inf is not representable on the wire (strconv
// would emit +Inf, which is not JSON) and the server would refuse the row
// anyway; Send must fail fast client-side instead of corrupting the NDJSON
// framing for every row batched after it.
func TestSendRejectsInfinity(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	ctx := context.Background()
	st, err := New(ts.URL).OpenStream(ctx, "t", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(ctx, []float64{1, math.Inf(1)}); err == nil {
		t.Fatal("Send accepted +Inf")
	}
	if err := st.Send(ctx, []float64{math.Inf(-1)}); err == nil {
		t.Fatal("Send accepted -Inf")
	}
}

// TestCloseAfterCancelReportsUnacked: cancelling the stream's context with
// rows still in flight must surface ErrStreamBroken from Close — a nil
// return would tell the caller every row was flushed and durable.
func TestCloseAfterCancelReportsUnacked(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // accept rows, never ack
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	st, err := New(ts.URL).OpenStream(ctx, "t", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Send(context.Background(), []float64{1, 2}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	cancel()
	if err := st.Close(); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("Close after cancel with unacked rows: %v, want ErrStreamBroken", err)
	}
}

// TestCloseAfterCancelBeforeFirstAck: cancelling the stream's context while
// the server has not acked anything (it has not even sent response headers)
// must not wedge Close — the writer closes its end of the request body, so
// the transport's round trip can return. Close reports the unacked row, or
// nil when nothing was sent.
func TestCloseAfterCancelBeforeFirstAck(t *testing.T) {
	for _, rows := range []int{0, 1} {
		t.Run(strconv.Itoa(rows)+"-rows", func(t *testing.T) {
			entered := make(chan struct{})
			release := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if rows > 0 {
					bufio.NewReader(r.Body).ReadString('\n') // the row arrived
				}
				close(entered)
				select { // never ack
				case <-r.Context().Done():
				case <-release:
				}
			}))
			defer ts.Close()
			defer close(release)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st, err := New(ts.URL).OpenStream(ctx, "t", StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := st.Send(context.Background(), []float64{1, 2}); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the request never reached the handler")
			}
			cancel()
			closed := make(chan error, 1)
			go func() { closed <- st.Close() }()
			select {
			case err = <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close still blocked 5s after the context was cancelled")
			}
			if rows == 0 && err != nil {
				t.Fatalf("Close with nothing sent: %v, want nil", err)
			}
			if rows > 0 && (!errors.Is(err, ErrStreamBroken) || !strings.Contains(err.Error(), "1 rows unacknowledged")) {
				t.Fatalf("Close with an unacked row: %v, want ErrStreamBroken naming it", err)
			}
		})
	}
}

// TestPreStreamErrorHonorsRetryFlag: a retry-marked failure on the very
// first row arrives as an HTTP error status rather than an NDJSON line; the
// sequenced client must still treat it as reconnect-and-replay instead of
// failing terminally.
func TestPreStreamErrorHonorsRetryFlag(t *testing.T) {
	var attempts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"t","streams":["x","y"],"ticks":0,"seq":0}`)
	})
	mux.HandleFunc("POST /v1/tenants/{id}/ticks", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		// Mirror the real handler: full duplex (so the response is not
		// stuck behind a drain of the still-streaming request body) and the
		// first row consumed before its commit fails.
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Errorf("full duplex: %v", err)
		}
		bufio.NewReader(r.Body).ReadString('\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"tick 1 not durable: disk hiccup","retry":true}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx := context.Background()
	st, err := New(ts.URL).OpenStream(ctx, "t", StreamOptions{
		Sequenced: true, MaxAttempts: 3, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(ctx, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, rerr := st.Recv(ctx); rerr == nil {
		t.Fatal("Recv succeeded against a permanently failing server")
	}
	if got := attempts.Load(); got < 3 {
		t.Fatalf("connection attempts = %d, want MaxAttempts (3): pre-stream retry flag not honored", got)
	}
	st.Close()
}

// ackServer serves one tenant "t" at seq 0 whose tick stream answers its
// first row with the line ack, then holds the stream open until the client
// ends its request body. attempts counts tick-stream connections.
func ackServer(t *testing.T, ack string, attempts *atomic.Int32) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"t","streams":["a","b","c","d"],"ticks":0,"seq":0}`)
	})
	mux.HandleFunc("POST /v1/tenants/{id}/ticks", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Errorf("full duplex: %v", err)
		}
		br := bufio.NewReader(r.Body)
		br.ReadString('\n')
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, ack+"\n")
		rc.Flush()
		io.Copy(io.Discard, br) // until the client ends its body
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestAckCompletesSentRow: an ack carries only the imputed cells, in any
// order, and Recv hands back the sent row with those cells filled in.
func TestAckCompletesSentRow(t *testing.T) {
	var attempts atomic.Int32
	ts := ackServer(t, `{"tick":0,"seq":1,"values":[4.5,2.5],"imputed":[3,1]}`, &attempts)
	ctx := context.Background()
	st, err := New(ts.URL).OpenStream(ctx, "t", StreamOptions{Sequenced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(ctx, []float64{1, math.NaN(), 3, math.NaN()}); err != nil {
		t.Fatal(err)
	}
	ack, err := st.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 1 || fmt.Sprint(ack.Values) != "[1 2.5 3 4.5]" || fmt.Sprint(ack.Imputed) != "[3 1]" {
		t.Fatalf("ack %+v, want the row [1 2.5 3 4.5] with cells [3 1] imputed", ack)
	}
}

// TestForgedAckRefused serves ack lines that do not fit the row they answer.
// Each must fail the stream with a non-retryable error: a sequenced stream
// must not reconnect, and on an unsequenced one this check is the only proof
// that an ack belongs to its row. The negative index takes the encoding/json
// fallback, which the fast parser leaves to it.
func TestForgedAckRefused(t *testing.T) {
	row := []float64{1, math.NaN(), 3, math.NaN()}
	for _, tc := range []struct{ name, ack, want string }{
		{"value-count", `{"tick":0,"seq":1,"values":[2],"imputed":[1,3]}`, "1 values for 2 imputed cells"},
		{"index-out-of-range", `{"tick":0,"seq":1,"values":[2,4],"imputed":[1,4]}`, "cell 4 imputed in a row of 4"},
		{"negative-index", `{"tick":0,"seq":1,"values":[2,4],"imputed":[-1,3]}`, "cell -1 imputed in a row of 4"},
		{"repeated-index", `{"tick":0,"seq":1,"values":[2,4],"imputed":[1,1]}`, "cell 1 imputed twice"},
		{"cell-not-missing", `{"tick":0,"seq":1,"values":[2,4],"imputed":[0,1]}`, "cell 0 imputed but not missing"},
		{"missing-cell-left-out", `{"tick":0,"seq":1,"values":[2],"imputed":[1]}`, "1 cells imputed, 2 missing"},
	} {
		for _, sequenced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sequenced=%v", tc.name, sequenced), func(t *testing.T) {
				var attempts atomic.Int32
				ts := ackServer(t, tc.ack, &attempts)
				ctx := context.Background()
				st, err := New(ts.URL).OpenStream(ctx, "t", StreamOptions{
					Sequenced: sequenced, MaxAttempts: 3, RetryBackoff: time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Runs before ackServer's cleanup: an accepted ack would
				// otherwise leave the stream, and the server, waiting.
				t.Cleanup(func() { st.Close() })
				if err := st.Send(ctx, row); err != nil {
					t.Fatal(err)
				}
				ack, err := st.Recv(ctx)
				if !errors.Is(err, ErrStreamBroken) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Recv: %+v, %v; want ErrStreamBroken naming %q", ack, err, tc.want)
				}
				if n := attempts.Load(); n != 1 {
					t.Fatalf("%d connections, want 1: a forged ack is not retryable", n)
				}
				if err := st.Close(); !errors.Is(err, ErrStreamBroken) {
					t.Fatalf("Close: %v, want ErrStreamBroken", err)
				}
			})
		}
	}
}

// TestCloseWithoutRecvDoesNotDeadlock: a caller that sends more rows than
// MaxInFlight ack-buffer slots and never consumes Recv must still be able
// to Close (overflow acks are dropped, not deadlocked on).
func TestCloseWithoutRecvDoesNotDeadlock(t *testing.T) {
	walMgr := wal.NewManager(t.TempDir(), wal.Options{})
	m := shard.New(shard.Options{Shards: 1, WAL: walMgr})
	srv := server.New(server.Options{Manager: m, CheckpointDir: t.TempDir(), WAL: walMgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer m.Close()
	defer walMgr.Close()

	ctx := context.Background()
	c := New(ts.URL)
	if err := c.CreateTenant(ctx, "noread", CreateTenantRequest{Streams: []string{"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(ctx, "noread", StreamOptions{Sequenced: true, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 4 rows: 2 fill the ack buffer, the 3rd's delivery blocks on it, the
	// 4th occupies the second in-flight token — the exact overflow state
	// whose acks only Close's drop permission can unwedge. (More sends
	// would block in Send itself: that is backpressure working.)
	for i := 0; i < 4; i++ {
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := st.Send(sctx, []float64{1, 2})
		cancel()
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- st.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked with unconsumed acks")
	}
}

// TestStreamBatchCoalescing: a stream opened with Batch > 1 must deliver
// exactly the acks of an unbatched stream on the same rows — and the rows
// must actually travel as batch lines (visible in the server's metrics),
// since the producer runs far ahead of the connection.
func TestStreamBatchCoalescing(t *testing.T) {
	walMgr := wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond})
	m := shard.New(shard.Options{Shards: 2, WAL: walMgr})
	srv := server.New(server.Options{Manager: m, CheckpointDir: t.TempDir(), WAL: walMgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer m.Close()
	defer walMgr.Close()

	ctx := context.Background()
	c := New(ts.URL)
	req := CreateTenantRequest{
		Streams: []string{"s", "r1", "r2", "r3"},
		Config:  &Config{K: 2, PatternLength: 3, D: 2, WindowLength: 32},
	}
	for _, id := range []string{"bat", "row"} {
		if err := c.CreateTenant(ctx, id, req); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
	}

	const n = 200
	row := func(i int) []float64 {
		r := []float64{20 + math.Sin(float64(i)/3), 19 + math.Cos(float64(i)/5), 21, 20.5}
		if i > 20 && i%4 == 0 {
			r[0] = math.NaN()
		}
		return r
	}
	drive := func(id string, opts StreamOptions) []Ack {
		st, err := c.OpenStream(ctx, id, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Queue every row before consuming acks: the producer runs ahead, so
		// the batched stream has material to coalesce.
		for i := 0; i < n; i++ {
			if err := st.Send(ctx, row(i)); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		acks := make([]Ack, 0, n)
		for i := 0; i < n; i++ {
			a, err := st.Recv(ctx)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			acks = append(acks, a)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return acks
	}
	batched := drive("bat", StreamOptions{Sequenced: true, Batch: 16, MaxInFlight: n})
	plain := drive("row", StreamOptions{Sequenced: true, MaxInFlight: n})

	for i := range plain {
		b, p := batched[i], plain[i]
		if b.Seq != p.Seq || b.Tick != p.Tick || b.Duplicate != p.Duplicate {
			t.Fatalf("ack %d: batched %+v, plain %+v", i, b, p)
		}
		if len(b.Values) != len(p.Values) {
			t.Fatalf("ack %d: %d values vs %d", i, len(b.Values), len(p.Values))
		}
		for j := range p.Values {
			if b.Values[j] != p.Values[j] {
				t.Fatalf("ack %d value %d: batched %v, plain %v", i, j, b.Values[j], p.Values[j])
			}
		}
	}
	mtx, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for _, line := range bytes.Split([]byte(mtx), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("tkcm_ticks_batched_total ")) {
			if _, err := fmtSscan(string(line[len("tkcm_ticks_batched_total "):]), &got); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if got == 0 {
		t.Fatal("no rows traveled as batch lines (tkcm_ticks_batched_total 0)")
	}
}

// TestStreamLongLines: both tick-stream line scanners start at bufio's
// 4 KiB and grow on demand. A 2,048-stream tenant makes every row line about
// 39 KB, so each batch line the producer's backlog coalesces exceeds 64 KiB
// on the server's scanner, and a row with 300 missing cells acks in a line
// above 4 KiB on the client's.
func TestStreamLongLines(t *testing.T) {
	walMgr := wal.NewManager(t.TempDir(), wal.Options{SyncInterval: time.Millisecond})
	m := shard.New(shard.Options{Shards: 2, WAL: walMgr})
	srv := server.New(server.Options{Manager: m, CheckpointDir: t.TempDir(), WAL: walMgr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer m.Close()
	defer walMgr.Close()

	ctx := context.Background()
	c := New(ts.URL)
	const width, n, missing = 2048, 12, 300
	names := make([]string, width)
	refs := make(map[string][]string, missing)
	for j := range names {
		names[j] = fmt.Sprintf("s%d", j)
		if j >= 100 && j < 100+missing {
			refs[names[j]] = []string{"s0", "s1"} // spares ranking 2,048 candidates per gap
		}
	}
	if err := c.CreateTenant(ctx, "wide", CreateTenantRequest{
		Streams: names,
		Config:  &Config{K: 2, PatternLength: 3, D: 2, WindowLength: 32},
		Refs:    refs,
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	st, err := c.OpenStream(ctx, "wide", StreamOptions{Sequenced: true, Batch: 4, MaxInFlight: n + 1})
	if err != nil {
		t.Fatal(err)
	}
	rowLen := 0
	for i := 0; i <= n; i++ {
		row := make([]float64, width)
		for j := range row {
			row[j] = 20 + math.Sin(float64(i*width+j))
			rowLen += len(strconv.FormatFloat(row[j], 'g', -1, 64)) + 1
		}
		if i == n {
			for j := 100; j < 100+missing; j++ {
				row[j] = math.NaN()
			}
		}
		if err := st.Send(ctx, row); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if rowLen/(n+1) < 32<<10 {
		t.Fatalf("rows average %d bytes, want two of them above 64 KiB", rowLen/(n+1))
	}
	var last Ack
	for i := 0; i <= n; i++ {
		if last, err = st.Recv(ctx); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if last.Seq != uint64(i+1) {
			t.Fatalf("ack %d: seq %d", i, last.Seq)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(last.Imputed) != missing || len(last.Values) != width {
		t.Fatalf("last ack: %d imputed of %d values, want %d of %d", len(last.Imputed), len(last.Values), missing, width)
	}
	ackLen := 0
	for _, j := range last.Imputed {
		if v := last.Values[j]; math.IsNaN(v) {
			t.Fatalf("stream %d left missing", j)
		} else {
			ackLen += len(strconv.FormatFloat(v, 'g', -1, 64)) + len(strconv.Itoa(j)) + 2
		}
	}
	if ackLen <= 4<<10 {
		t.Fatalf("the last ack line carries %d bytes of cells, want above 4 KiB", ackLen)
	}
	mtx, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mtx, "\ntkcm_ticks_batched_total ") || strings.Contains(mtx, "\ntkcm_ticks_batched_total 0\n") {
		t.Fatal("no rows traveled as batch lines (tkcm_ticks_batched_total 0)")
	}
}

// fmtSscan keeps the fmt import local to this test's single use.
func fmtSscan(s string, v *uint64) (int, error) {
	u, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	*v = u
	return 1, nil
}
