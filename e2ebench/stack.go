package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ipusparse/internal/cluster"
	"ipusparse/internal/serve"
	"ipusparse/internal/telemetry"
)

// stack is the system under test, started in process on loopback HTTP: one
// or more serve shards and, for routed workloads, a cluster router in front.
type stack struct {
	shards    []*shard
	router    *cluster.Router
	routerSrv *http.Server
	// routerTransport carries the router's calls to the shards.
	routerTransport *http.Transport
	base            string // URL the clients talk to
	client          *http.Client
	tr              *tracer
}

// shard is one serve.Service behind its own HTTP server, with its own
// telemetry registry so its histograms describe it alone.
type shard struct {
	svc *serve.Service
	reg *telemetry.Registry
	srv *http.Server
	url string
	mw  *shardMiddleware
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveOn(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv
}

// startStack starts nShards services with opts (each with a fresh registry)
// and, when routed, a router with replica factor 2 over them. With tr
// non-nil every server is wrapped in the span middleware.
func startStack(opts serve.Options, nShards int, routed bool, tr *tracer) (*stack, error) {
	st := &stack{
		tr: tr,
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 2,
				MaxConnsPerHost:     2,
				DisableCompression:  true,
			},
		},
	}
	for i := 0; i < nShards; i++ {
		o := opts
		o.Telemetry = telemetry.NewRegistry()
		sh := &shard{svc: serve.New(o), reg: o.Telemetry}
		ln, url, err := listen()
		if err != nil {
			sh.svc.Close()
			st.close()
			return nil, err
		}
		sh.url = url
		var h http.Handler = sh.svc.Handler()
		if tr != nil {
			sh.mw = &shardMiddleware{tr: tr, next: h, index: i}
			h = sh.mw
		}
		sh.srv = serveOn(ln, h)
		st.shards = append(st.shards, sh)
	}
	st.base = st.shards[0].url
	if !routed {
		return st, nil
	}
	// The router hashes shard names onto its ring. Loopback ports differ
	// from run to run, so the shards get fixed names that the router's
	// client dials through a name → address table: system placement is then
	// the same on every run, and so is which requests share a shard.
	names := make([]string, len(st.shards))
	addrs := map[string]string{}
	for i, sh := range st.shards {
		names[i] = fmt.Sprintf("http://shard-%d.e2ebench", i)
		addrs[fmt.Sprintf("shard-%d.e2ebench:80", i)] = strings.TrimPrefix(sh.url, "http://")
	}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	var dialer net.Dialer
	tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}
	st.routerTransport = tp
	rt, err := cluster.New(cluster.Options{Shards: names, Replicas: 2, Client: &http.Client{Transport: tp}})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	ln, url, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.routerMiddleware(h)
	}
	st.routerSrv = serveOn(ln, h)
	st.base = url
	return st, nil
}

// close stops every server, the router loops and the services, and waits
// for each to finish.
func (st *stack) close() {
	if st.routerSrv != nil {
		_ = st.routerSrv.Close()
	}
	if st.router != nil {
		st.router.Close()
		st.routerTransport.CloseIdleConnections()
	}
	for _, sh := range st.shards {
		_ = sh.srv.Close()
		_ = sh.svc.Close()
	}
	st.client.CloseIdleConnections()
}

// serveStats sums the service counters over every shard.
func (st *stack) serveStats() serve.Stats {
	var sum serve.Stats
	for _, sh := range st.shards {
		s := sh.svc.Stats()
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.Retries += s.Retries
		sum.VerifyFailed += s.VerifyFailed
	}
	return sum
}

func (st *stack) failovers() uint64 {
	if st.router == nil {
		return 0
	}
	return st.router.Stats().Failovers
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call sends one JSON request and decodes the JSON answer into out. It
// returns the send time: encoding the request happens before it, so a
// caller's latency runs from send until the answer is decoded and checked.
// reqID tags the request for the traced run's router span.
func (st *stack) call(ctx context.Context, method, path string, in, out any, reqID int64) (time.Time, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return time.Now(), err
	}
	req, err := http.NewRequestWithContext(ctx, method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return time.Now(), err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID > 0 {
		req.Header.Set(requestIDHeader, strconv.FormatInt(reqID, 10))
	}
	start := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return start, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return start, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	return start, json.NewDecoder(resp.Body).Decode(out)
}
