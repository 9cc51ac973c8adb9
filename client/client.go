package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client is a tkcm-serve API client. It is safe for concurrent use; one
// Client can serve any number of goroutines and tick streams.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient). Tick streams are long-lived full-duplex requests, so
// the client must not impose an overall request timeout; use dial and
// header timeouts on the transport instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New creates a client for the tkcm-serve instance at baseURL (e.g.
// "http://localhost:8080"). A trailing slash is tolerated.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the server, decoded from its uniform
// {"error": "..."} body.
type APIError struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Message is the server's error text.
	Message string
	// Retry reports the server marked the failure recoverable: reconnect
	// and replay unacknowledged rows (sequenced streams do so automatically).
	Retry bool
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("tkcm: server returned %d: %s", e.StatusCode, e.Message)
}

// decodeError turns a non-2xx response into an *APIError.
func decodeError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
		Retry bool   `json:"retry"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	return &APIError{StatusCode: resp.StatusCode, Message: body.Error, Retry: body.Retry}
}

// Config selects a tenant's TKCM parameters. Zero fields keep the server's
// calibrated defaults (the paper's Sec. 7.1 values).
type Config struct {
	// K is the number of anchor points (paper default 5).
	K int `json:"k,omitempty"`
	// PatternLength is l, the query pattern length in ticks (default 72).
	PatternLength int `json:"pattern_length,omitempty"`
	// D is the number of reference series consulted per imputation
	// (default 3).
	D int `json:"d,omitempty"`
	// WindowLength is L, the retained history per stream in ticks.
	WindowLength int `json:"window_length,omitempty"`
	// Workers fans one tick's imputations across a worker pool when > 1.
	Workers int `json:"workers,omitempty"`
	// Profiler pins the pattern-extraction strategy: "naive", "fft" or
	// "incremental" (default: auto).
	Profiler string `json:"profiler,omitempty"`
	// WeightedMean weights anchor values by inverse dissimilarity.
	WeightedMean bool `json:"weighted_mean,omitempty"`
}

// CreateTenantRequest describes a tenant to create.
type CreateTenantRequest struct {
	// Streams names the tenant's co-evolving series, in column order.
	// Required, non-empty.
	Streams []string `json:"streams"`
	// Config overrides TKCM parameters (nil = server defaults).
	Config *Config `json:"config,omitempty"`
	// Refs optionally pins each stream's ordered candidate reference
	// streams; streams without an entry get correlation-ranked references
	// on their first missing value.
	Refs map[string][]string `json:"refs,omitempty"`
}

// TenantInfo describes one hosted tenant.
type TenantInfo struct {
	// ID is the tenant id.
	ID string `json:"id"`
	// Shard is the engine shard hosting the tenant.
	Shard int `json:"shard"`
	// Streams names the tenant's series in column order.
	Streams []string `json:"streams"`
	// Ticks counts rows ingested (caller-visible engine counter).
	Ticks int `json:"ticks"`
	// Seq is the engine's sequence number; a sequenced stream resumes
	// sending at Seq+1.
	Seq uint64 `json:"seq"`
}

// Health is the /healthz document. The server pairs non-"ok" statuses with
// HTTP 503 so load-balancer probes fail, but still sends the full document;
// Client.Health returns it with a nil error either way — check Status.
type Health struct {
	// Status is "ok", "degraded" (some tenants' write-ahead logs have
	// fail-stopped; see FailedWALTenants) or "follower" (an unpromoted
	// replica: every API route except health, metrics and promotion
	// answers 503).
	Status string `json:"status"`
	// Shards is the engine shard count.
	Shards int `json:"shards"`
	// Tenants is the hosted tenant count.
	Tenants int `json:"tenants"`
	// UptimeSeconds is seconds since the server started.
	UptimeSeconds int `json:"uptime_seconds"`
	// FailedWALTenants names the fail-stopped tenants when Status is
	// "degraded"; their ticks are rejected until the operator intervenes.
	FailedWALTenants []string `json:"failed_wal_tenants,omitempty"`
	// Primary is the followed server's base URL when Status is "follower".
	Primary string `json:"primary,omitempty"`
	// ReplicationLagSeconds is the follower's staleness: seconds since the
	// last fully-applied manifest was generated on the primary.
	ReplicationLagSeconds float64 `json:"replication_lag_seconds,omitempty"`
}

// do issues one JSON request/response round trip.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("tkcm: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("tkcm: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("tkcm: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("tkcm: decoding response: %w", err)
		}
	}
	return nil
}

// Health fetches the /healthz document. Unlike the other methods it decodes
// the body even on a 503: "degraded" and "follower" states are reported in
// the returned document (with a nil error), not as an *APIError.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return h, fmt.Errorf("tkcm: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h, fmt.Errorf("tkcm: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return h, fmt.Errorf("tkcm: %w", err)
	}
	if jerr := json.Unmarshal(raw, &h); jerr == nil && h.Status != "" {
		return h, nil
	}
	if resp.StatusCode/100 != 2 {
		// Not a health document — e.g. a proxy error page.
		var body struct {
			Error string `json:"error"`
			Retry bool   `json:"retry"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
			body.Error = strings.TrimSpace(string(raw))
		}
		return h, &APIError{StatusCode: resp.StatusCode, Message: body.Error, Retry: body.Retry}
	}
	return h, fmt.Errorf("tkcm: decoding health document: unexpected body %.80q", raw)
}

// CreateTenant creates tenant id. The server answers 409 (an *APIError)
// when the id is already hosted.
func (c *Client) CreateTenant(ctx context.Context, id string, req CreateTenantRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(id), req, nil)
}

// DeleteTenant deletes tenant id, including its durable state (checkpoint
// and write-ahead log) — the tenant will not resurrect on a server restart.
func (c *Client) DeleteTenant(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/tenants/"+url.PathEscape(id), nil, nil)
}

// GetTenant fetches one tenant's description, including the sequence number
// a sequenced stream should resume from.
func (c *Client) GetTenant(ctx context.Context, id string) (TenantInfo, error) {
	var info TenantInfo
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(id), nil, &info)
	return info, err
}

// ListTenants lists every hosted tenant, sorted by id.
func (c *Client) ListTenants(ctx context.Context) ([]TenantInfo, error) {
	var out struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out.Tenants, err
}

// MigrateResult reports one completed tenant migration.
type MigrateResult struct {
	// Tenant is the migrated tenant id.
	Tenant string `json:"tenant"`
	// From is the shard the tenant left.
	From int `json:"from"`
	// To is the shard hosting the tenant now.
	To int `json:"to"`
}

// MigrateTenant moves tenant id onto shard dst live: in-flight ticks drain,
// the engine moves with its durability state intact, and streaming resumes
// on the destination — acknowledged ticks are never lost and sequenced
// streams never observe a gap. Migrating a tenant onto the shard it already
// occupies is a no-op that still verifies the tenant exists.
func (c *Client) MigrateTenant(ctx context.Context, id string, dst int) (MigrateResult, error) {
	var res MigrateResult
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(id)+"/migrate",
		map[string]int{"shard": dst}, &res)
	return res, err
}

// RoutingInfo is the cluster routing document: the versioned tenant→shard
// table plus migration counters.
type RoutingInfo struct {
	// Version counts routing-table mutations.
	Version uint64 `json:"version"`
	// Shards is the shard count the table routes onto.
	Shards int `json:"shards"`
	// DefaultMod is the modulus of the default hash route (pinned at table
	// creation, so growing the shard count never reroutes tenants).
	DefaultMod int `json:"default_mod"`
	// Assignments maps explicitly-routed tenants to shards; absent tenants
	// follow the default hash route.
	Assignments map[string]int `json:"assignments"`
	// MigrationsTotal counts completed migrations since the server started.
	MigrationsTotal uint64 `json:"migrations_total"`
	// Imbalance is the last sampled hottest-shard/mean tick-rate ratio
	// (1 = balanced; 0 = not sampled yet).
	Imbalance float64 `json:"imbalance"`
}

// Routing fetches the cluster routing table.
func (c *Client) Routing(ctx context.Context) (RoutingInfo, error) {
	var info RoutingInfo
	err := c.do(ctx, http.MethodGet, "/v1/cluster/routing", nil, &info)
	return info, err
}

// Checkpoint asks the server to snapshot every tenant now and returns how
// many tenants were written.
func (c *Client) Checkpoint(ctx context.Context) (int, error) {
	var out struct {
		Checkpointed int `json:"checkpointed"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/checkpoint", nil, &out)
	return out.Checkpointed, err
}

// Snapshot downloads tenant id's engine snapshot (core snapshot format,
// restorable with tkcm.RestoreEngine) into w, returning the bytes copied.
func (c *Client) Snapshot(ctx context.Context, id string, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/tenants/"+url.PathEscape(id)+"/snapshot", nil)
	if err != nil {
		return 0, fmt.Errorf("tkcm: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("tkcm: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeError(resp)
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, fmt.Errorf("tkcm: downloading snapshot: %w", err)
	}
	return n, nil
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("tkcm: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("tkcm: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("tkcm: %w", err)
	}
	return string(raw), nil
}
