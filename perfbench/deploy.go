package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/durable"
	"goldfinger/internal/obs"
	"goldfinger/internal/router"
	"goldfinger/internal/service"
)

// fsyncPolicy is the shard-cores' WAL flush policy: the page cache
// decides, so the benchmark measures the program rather than the disk.
const fsyncPolicy = durable.FsyncNone

// shardCore is one service.Server with its durable store, served over a
// loopback listener.
type shardCore struct {
	name  string
	srv   *service.Server
	store *durable.Store
	hs    *http.Server
	done  chan struct{} // closed when Serve returns
	url   string
}

// deployment is a serving stack in this process, wired the way knnserver
// wires it with default flags: one shard-core, or several behind the
// scatter-gather router.
type deployment struct {
	cores     []*shardCore
	rt        *router.Router
	front     *http.Server
	frontDone chan struct{}
	url       string // where clients send requests
	dir       string
}

// deploy starts a stack of shards shard-cores (a router in front when
// shards > 1), each with a durable store in its own directory under dir.
// With a tracer, every handler and the router's shard transport record
// spans for traced requests.
func deploy(shards int, dir string, tr *tracer) (*deployment, error) {
	d := &deployment{dir: dir}
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	var specs []router.ShardSpec
	for _, name := range names {
		sc, err := startCore(name, names, filepath.Join(dir, name), tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.cores = append(d.cores, sc)
		specs = append(specs, router.ShardSpec{Name: name, URL: sc.url})
	}
	if shards == 1 {
		d.url = d.cores[0].url
		return d, nil
	}
	// Untraced, the router builds its own default transport. Traced, the
	// span wrapper forwards to a copy of that default (router.New's).
	var transport http.RoundTripper
	if tr != nil {
		transport = &tracingTransport{t: tr, inner: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt, err := router.New(router.Config{
		Shards:       specs,
		Quorum:       0.5,
		QueryTimeout: 10 * time.Second,
		Metrics:      obs.NewRegistry(),
		Transport:    transport,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.front = httpServer(tr.wrapHandler("router", rt.Handler()))
	d.frontDone = serve(d.front, ln)
	d.url = "http://" + ln.Addr().String()
	return d, nil
}

func startCore(name string, ring []string, dir string, tr *tracer) (*shardCore, error) {
	srv, err := service.NewServer(shfBits)
	if err != nil {
		return nil, err
	}
	srv.SetAdmission(admit.DefaultConfig())
	if len(ring) > 1 {
		srv.SetShardName(name)
		if err := srv.InstallRing(service.RingInfo{Epoch: 1, Mode: service.RingStable, Names: ring}); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, rec, err := durable.Open(durable.Options{Dir: dir, Fsync: fsyncPolicy, Metrics: srv.Metrics()})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	if err := srv.UseStore(st, rec); err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	sc := &shardCore{name: name, srv: srv, store: st, url: "http://" + ln.Addr().String()}
	sc.hs = httpServer(tr.wrapHandler("service", srv.Handler()))
	sc.done = serve(sc.hs, ln)
	return sc, nil
}

// httpServer applies knnserver's default http.Server hardening.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// serve runs hs on ln and returns a channel closed when Serve returns.
func serve(hs *http.Server, ln net.Listener) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve: %v", err)
		}
	}()
	return done
}

// close stops every server, waits for each to return, closes the stores
// and removes the stack's directory.
func (d *deployment) close() {
	stop := func(hs *http.Server, done chan struct{}) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-done
	}
	if d.front != nil {
		stop(d.front, d.frontDone)
	}
	if d.rt != nil {
		d.rt.Close()
	}
	for _, sc := range d.cores {
		stop(sc.hs, sc.done)
		if err := sc.store.Close(); err != nil {
			logf("closing %s store: %v", sc.name, err)
		}
	}
	if err := os.RemoveAll(d.dir); err != nil {
		logf("removing %s: %v", d.dir, err)
	}
}

// registries lists the stack's metric registries: every shard-core's,
// then the router's.
func (d *deployment) registries() []*obs.Registry {
	var out []*obs.Registry
	for _, sc := range d.cores {
		out = append(out, sc.srv.Metrics())
	}
	if d.rt != nil {
		out = append(out, d.rt.Metrics())
	}
	return out
}

// counters sums every registry's snapshot: counters and gauges by name,
// histograms as name+".sum" and name+".count".
func (d *deployment) counters() map[string]float64 {
	out := map[string]float64{}
	for _, reg := range d.registries() {
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			out[k] += float64(v)
		}
		for k, v := range snap.Gauges {
			out[k] += float64(v)
		}
		for k, h := range snap.Histograms {
			out[k+".sum"] += h.Sum
			out[k+".count"] += float64(h.Count)
		}
	}
	return out
}
