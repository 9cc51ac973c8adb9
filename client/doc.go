// Package client is the official Go client for tkcm-serve, the sharded
// multi-tenant streaming-imputation service. It covers the full HTTP API —
// tenant CRUD, health, metrics, on-demand checkpoints, snapshot download —
// and, through TickStream, the full-duplex NDJSON tick stream with
// backpressure, pipelined acknowledgements, and automatic reconnect.
//
// # Quick start
//
//	c := client.New("http://localhost:8080")
//	err := c.CreateTenant(ctx, "plant-a", client.CreateTenantRequest{
//		Streams: []string{"s", "r1", "r2", "r3"},
//		Config:  &client.Config{K: 5, PatternLength: 72, D: 3, WindowLength: 4032},
//	})
//	st, err := c.OpenStream(ctx, "plant-a", client.StreamOptions{Sequenced: true})
//	go func() {
//		for {
//			ack, err := st.Recv(ctx) // completed rows, in send order
//			...
//		}
//	}()
//	st.Send(ctx, []float64{21.3, math.NaN(), 19.8, 20.1}) // NaN = missing
//	st.Close()
//
// # Delivery semantics
//
// Send accepts a row into a bounded in-flight window (StreamOptions.
// MaxInFlight) and blocks when it is full — backpressure that mirrors the
// server's bounded shard queues. Every sent row produces exactly one Ack on
// Recv, in send order. Against a server running with a write-ahead log, an
// Ack means the row is on stable storage and will survive a hard crash.
// The server acks only the imputed values; the stream writes them into its
// own copy of the sent row, so Ack.Values is the completed row. An ack that
// does not impute exactly the row's missing cells fails the stream.
//
// Sequenced streams (StreamOptions.Sequenced) number each row continuing
// the tenant's engine sequence. If the connection drops — including the
// server being killed and restarted — the stream reconnects with backoff
// and replays every unacknowledged row; the server applies each row at most
// once, answering already-applied rows with Duplicate acks. The combination
// is exactly-once ingestion from the producer's point of view, provided
// the stream is the tenant's only writer.
package client
