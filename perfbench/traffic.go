package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
)

// traffic runs a serving workload's measured phases and checks them:
// open loop at the fixed rate (latencies), a fixed count of requests
// closed-loop with nproc clients (capacity), and, on the read workloads, a
// one-client mutation probe. Each round starts with between(round).
func traffic(cfg config, kind serveKind, sz serveSizes, c *corpus, d *deployment, g *generator, tr *tracer, rep *report, between func(round int) error) error {
	secs := time.Duration(cfg.seconds) * time.Second
	openDur, closedDur := secs*35/100, secs*45/100
	if kind.churn {
		openDur, closedDur = secs*6/10, secs*4/10
	}
	n := rounds(cfg.seconds)
	closedOps := int64(sz.closedQPS * closedDur.Seconds() / float64(n))
	rep.prov.ClosedLoopOps = int(closedOps) * n
	before := d.counters()

	// The phases alternate in n rounds of short windows, so the machine's
	// slow and fast spells land in every figure alike, and each figure
	// is taken over all the run's windows of its kind. The windows of a
	// round start from a collected heap. On the read workloads each round
	// ends with a chunk of the mutation probe, outside the open and
	// closed windows whose counter and allocation deltas the read layers
	// are given.
	var open, closed [][]*op
	var completed, closedNS int64
	var rates []float64 // per closed-loop window, for the log
	var probe []*op
	reads := map[string]float64{}
	var allocs, gcs uint64
	trafficFrom := g.now()
	for b := int64(0); b < int64(n); b++ {
		if err := between(int(b)); err != nil {
			return err
		}
		runtime.GC()
		rep.cal.point()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := d.counters()
		from, to := g.openLoop(sz.openQPS, openDur/time.Duration(n), b<<32, kind.churn)
		open = append(open, g.opsBetween(from, to))
		from, to = g.closedLoop(nproc(), 0, closedOps, func(i int64) *op { return g.next(1<<40+b<<32+i, kind.churn) })
		ops, done := g.opsBetween(from, to), int64(0)
		for _, o := range ops {
			if o.err == nil && o.done <= to {
				done++
			}
		}
		closed = append(closed, ops)
		completed += done
		closedNS += to - from
		rates = append(rates, float64(done)/(float64(to-from)/1e9))
		runtime.ReadMemStats(&ms1)
		for name, v := range d.counters() {
			reads[name] += v - c0[name]
		}
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		rep.cal.point()
		if kind.churn {
			continue
		}
		// One client: the probe times a mutation on an otherwise idle
		// stack, without queueing behind its own concurrent mutations.
		// One untimed query then rebuilds the snapshots the chunk
		// invalidated, so the next read window starts with the cache
		// hitting again.
		chunk := int64(sz.probeMutations / n)
		from, to = g.closedLoop(1, 0, chunk, func(i int64) *op { return g.mutationOp(b*chunk + i) })
		probe = append(probe, g.opsBetween(from, to)...)
		if status, body, err := g.send(http.MethodPost, "/query?k="+strconv.Itoa(graphK)+"&mode=auto", c.hbody[0]); err != nil || status != http.StatusOK {
			rep.gate("warm-up query after probe chunk %d: status %d %v %s", b, status, err, bytes.TrimSpace(body))
		}
	}
	final := d.counters()

	all := g.opsBetween(0, g.now()+1)
	checkOps(kind, c, all, rep)

	// Open-loop latencies in send order, so that tailPct's blocks are
	// the rounds' windows.
	var qLat, mLat, late, traced, untraced []float64
	for _, w := range open {
		sort.Slice(w, func(i, j int) bool { return w[i].sent < w[j].sent })
		for _, o := range w {
			late = append(late, float64(o.sent-o.due)/1e6)
			if o.kind != opQuery {
				mLat = append(mLat, o.latMS())
				continue
			}
			qLat = append(qLat, o.latMS())
			if o.req%2 == 0 {
				traced = append(traced, o.latMS())
			} else {
				untraced = append(untraced, o.latMS())
			}
		}
	}
	if !kind.churn {
		mLat = mLat[:0]
		for _, o := range probe {
			mLat = append(mLat, o.latMS())
		}
	}
	nq, nm := len(qLat), len(mLat)
	qP50, qP90 := pct(qLat, 50), tailPct(qLat, n, 90)
	mutP50, mutP90 := pct(mLat, 50), tailPct(mLat, n, 90)
	qps := float64(completed) / (float64(closedNS) / 1e9)
	rep.e2e("query_p50_ms", qP50, "ms")
	rep.e2e("query_p90_ms", qP90, "ms")
	rep.e2e("mutate_p50_ms", mutP50, "ms")
	rep.e2e("mutate_p90_ms", mutP90, "ms")
	rep.layer("client.query_p99_ms", pct(qLat, 99), "ms")
	rep.layer("client.mutate_p99_ms", pct(mLat, 99), "ms")
	rep.e2e("saturated_qps", qps, "1/s")
	rep.e2e("recall_at_10", recallServed(sz, c, all), "ratio")
	rep.prov.QuerySamples, rep.prov.MutateSamples = nq, nm
	rep.layer("client.lateness_p99_ms", pct(late, 99), "ms")
	rep.layer("trace.overhead_p50_ms", median(traced)-median(untraced), "ms")
	logf("%s: open loop %.0f/s: %d queries p50 %.3fms p90 %.3fms; %d mutations p50 %.3fms p90 %.3fms; closed loop %.0f req/s; lateness p99 %.3fms",
		kind.name, sz.openQPS, nq, qP50, qP90, nm, mutP50, mutP90, qps, pct(late, 99))
	logf("%s: per window: query p50 %s; mutation p50 %s; closed-loop rate %s", kind.name,
		fmtFloats(blockPct(qLat, n, 50)), fmtFloats(blockPct(mLat, n, 50)), fmtFloats(rates))

	// Per-layer attribution from the program's own metrics, over the open
	// and closed phases.
	delta := func(name string) float64 { return reads[name] }
	histMeanMS := func(names ...string) float64 {
		var sum, n float64
		for _, name := range names {
			sum += delta(name + ".sum")
			n += delta(name + ".count")
		}
		return ratio(sum, n) * 1000
	}
	requests := 0.0
	for b := range open {
		requests += float64(len(open[b]) + len(closed[b]))
	}
	searchMean := histMeanMS("query.graph.seconds", "query.scan.seconds")
	waitMean := histMeanMS("admit.query.wait.seconds")
	rep.layer("service.search_mean_ms", searchMean, "ms")
	rep.layer("admit.query.wait_mean_ms", waitMean, "ms")
	rep.layer("admit.shed", delta("admit.query.shed.total")+delta("admit.read.shed.total")+delta("admit.write.shed.total"), "count")
	rep.layer("go.alloc_mb_per_request", float64(allocs)/(1<<20)/max(requests, 1), "MB")
	rep.layer("go.gc_cycles", float64(gcs), "count")
	mdelta := func(name string) float64 { return final[name] - before[name] }
	for _, kindName := range []string{"insert", "overwrite", "delete"} {
		name := "online." + kindName + ".seconds"
		rep.layer("knn.online."+kindName+"_mean_ms", ratio(mdelta(name+".sum"), mdelta(name+".count"))*1000, "ms")
	}
	muts := mdelta("online.insert.total") + mdelta("online.overwrite.total") + mdelta("online.delete.total")
	rep.layer("knn.online.comparisons_per_mutation", ratio(mdelta("online.comparisons.total"), muts), "count")
	acked := 0.0
	for _, o := range all {
		if o.kind != opQuery && o.err == nil && o.sent >= trafficFrom {
			acked++
		}
	}
	// wal_bytes is the active segment's size: its mean record size times
	// the appends each acked mutation made.
	recordBytes := ratio(final["wal_bytes"], final["wal_records"])
	rep.layer("durable.wal_bytes_per_mutation", recordBytes*ratio(mdelta("wal_appends"), acked), "B")
	rep.layer("durable.snapshot_gens", mdelta("snapshots_written"), "count")
	scans := delta("query.mode.scan.total")
	rep.layer("service.scan_share", ratio(scans, scans+delta("query.mode.graph.total")), "share")
	if d.rt != nil {
		rq := delta("router.query.total")
		rep.layer("router.hedges", delta("router.hedge.total"), "count")
		rep.layer("router.retries", delta("router.retry.total"), "count")
		rep.layer("router.partial_share", ratio(delta("router.query.partial.total"), rq), "share")
	}
	if tr != nil {
		spanLayers(tr.analyze(), d.rt != nil, searchMean, waitMean, rep)
	}
	return nil
}

// spanLayers derives the per-layer latencies from the traced requests'
// spans.
func spanLayers(a analysis, routed bool, searchMean, waitMean float64, rep *report) {
	handler := a.durationsMS("service.query")
	rep.layer("service.query.handler_p50_ms", median(handler), "ms")
	rep.layer("service.query.handler_p99_ms", pct(handler, 99), "ms")
	rep.layer("service.query.other_mean_ms", mean(handler)-searchMean-waitMean, "ms")
	rep.layer("service.mutate.handler_p50_ms", median(a.durationsMS("service.mutate")), "ms")

	// Transport: the client's time outside the first server handler.
	var transport []float64
	for _, s := range a.byName["client.query"] {
		for _, ch := range a.children[s.ID] {
			transport = append(transport, ms(s.dur()-ch.dur()))
		}
	}
	rep.layer("transport.query_p50_ms", median(transport), "ms")
	if !routed {
		return
	}
	var slowest, self, fanout []float64
	for _, s := range a.byName["router.query"] {
		var worst time.Duration
		kids := a.children[s.ID]
		for _, ch := range kids {
			worst = max(worst, ch.dur())
		}
		slowest = append(slowest, ms(worst))
		self = append(self, ms(a.self(s)))
		fanout = append(fanout, float64(len(kids)))
	}
	rep.layer("router.query.handler_p50_ms", median(a.durationsMS("router.query")), "ms")
	rep.layer("router.shard_rtt_p50_ms", median(a.durationsMS("router.subrequest")), "ms")
	rep.layer("router.slowest_shard_p50_ms", median(slowest), "ms")
	rep.layer("router.self_p50_ms", median(self), "ms")
	rep.layer("router.subrequests_per_query", mean(fanout), "count")
}

// model is the benchmark's own record of what it seeded and mutated.
type model struct {
	fps       []core.Fingerprint // by slot; nil = never uploaded
	live      []bool
	rewritten []bool  // overwritten at some point
	deletedAt []int64 // ack time of the slot's DELETE, 0 if none
}

func newModel(c *corpus, ops []*op) *model {
	slots := len(c.fps)
	for _, o := range ops {
		slots = max(slots, o.slot+1)
	}
	m := &model{
		fps:       make([]core.Fingerprint, slots),
		live:      make([]bool, slots),
		rewritten: make([]bool, slots),
		deletedAt: make([]int64, slots),
	}
	copy(m.fps, c.fps)
	for i := range c.fps {
		m.live[i] = true
	}
	return m
}

// checkOps applies the correctness gates to every op: status codes,
// hit counts and order, exact similarities, no user whose DELETE was
// acked before the query was sent, and full routed coverage.
func checkOps(kind serveKind, c *corpus, ops []*op, rep *report) {
	for _, o := range ops {
		if o.kind == opQuery && o.err == nil && o.status == http.StatusOK && o.hits == nil {
			o.err = decodeHits(o.body, &o.hits)
		}
	}
	m := newModel(c, ops)
	for _, o := range ops {
		if o.kind == opDelete && o.err == nil && o.status == http.StatusNoContent {
			m.deletedAt[o.slot] = o.done
		}
		if o.kind == opOverwrite {
			m.rewritten[o.slot] = true
		}
		if o.kind == opInsert {
			m.fps[o.slot] = c.held[o.fp]
		}
	}
	var failed int64
	for _, o := range ops {
		if !checkOp(kind, c, m, o, rep) {
			failed++
		}
	}
	rep.ops(int64(len(ops)), failed)
}

func checkOp(kind serveKind, c *corpus, m *model, o *op, rep *report) bool {
	name := opNames[o.kind]
	if o.err != nil {
		rep.gate("%s %d: %v", name, o.req, o.err)
		return false
	}
	want := http.StatusNoContent
	if o.kind == opQuery {
		want = http.StatusOK
	}
	if o.status != want {
		rep.gate("%s %d: status %d, want %d", name, o.req, o.status, want)
		return false
	}
	if o.kind != opQuery {
		return true
	}
	if kind.shards > 1 && o.partial != fmt.Sprintf("%d/%d", kind.shards, kind.shards) {
		rep.gate("query %d: X-Partial-Results %q, want full coverage", o.req, o.partial)
		return false
	}
	// Every corpus keeps far more than k live users, so a full answer
	// has exactly k hits.
	if len(o.hits) != graphK {
		rep.gate("query %d: %d hits, want %d", o.req, len(o.hits), graphK)
		return false
	}
	q := c.held[o.fp]
	for i, h := range o.hits {
		if i > 0 && h.sim > o.hits[i-1].sim {
			rep.gate("query %d: hits not ordered by similarity", o.req)
			return false
		}
		if h.slot >= len(m.fps) || m.fps[h.slot].Bits() == nil {
			rep.gate("query %d: hit %s was never uploaded", o.req, userID(h.slot))
			return false
		}
		if at := m.deletedAt[h.slot]; at != 0 && at < o.sent {
			rep.gate("query %d: hit %s was deleted before the query was sent", o.req, userID(h.slot))
			return false
		}
		if !m.rewritten[h.slot] {
			if exact := core.Jaccard(q, m.fps[h.slot]); exact != h.sim {
				rep.gate("query %d: hit %s similarity %v, exact %v", o.req, userID(h.slot), h.sim, exact)
				return false
			}
		}
	}
	return true
}

// recallServed is recall@k of the served answers against the exact top-k
// over the users the benchmark had seeded and mutated with acks before
// the query was sent: a replay of the mutation log up to each sampled
// query.
func recallServed(sz serveSizes, c *corpus, ops []*op) float64 {
	var queries, muts []*op
	for _, o := range ops {
		switch {
		case o.kind == opQuery && o.err == nil && o.status == http.StatusOK:
			queries = append(queries, o)
		case o.kind != opQuery && o.err == nil:
			muts = append(muts, o)
		}
	}
	if len(queries) == 0 {
		return 0
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].sent < queries[j].sent })
	sort.Slice(muts, func(i, j int) bool { return muts[i].done < muts[j].done })
	step := max(1, len(queries)/sz.recallSamples)
	m := newModel(c, ops)
	var sum float64
	var n, applied int
	for i := 0; i < len(queries); i += step {
		q := queries[i]
		for ; applied < len(muts) && muts[applied].done < q.sent; applied++ {
			mu := muts[applied]
			switch mu.kind {
			case opDelete:
				m.live[mu.slot] = false
			default:
				m.fps[mu.slot], m.live[mu.slot] = c.held[mu.fp], true
			}
		}
		sum += recallOf(hitSlots(q.hits), exactLive(m, c.held[q.fp], graphK))
		n++
	}
	return sum / float64(n)
}

// exactLive is the exact top-k of q over the model's live users.
func exactLive(m *model, q core.Fingerprint, k int) []knn.Neighbor {
	return knn.TopK(len(m.fps), k, 1, func(i int) float64 {
		if !m.live[i] {
			return -1
		}
		return core.Jaccard(q, m.fps[i])
	})
}

func hitSlots(hits []hit) []int32 {
	out := make([]int32, len(hits))
	for i, h := range hits {
		out[i] = int32(h.slot)
	}
	return out
}
