package main

// The traced run. After the untraced timed phase it replays the workload's
// request sequence and records a span around every call into a layer:
// ServeHTTP on an instrumented server (whose ?debug=timing echo yields the
// handler's stage spans), then the prepare and eval calls the benchmark
// makes itself through the public batch API. Spans stay in memory and are
// written out when the run ends; each layer's self time is computed from
// them. The program itself gains no tracing.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ftrouting"
	"ftrouting/internal/obs"
	"ftrouting/internal/treecover"
	"ftrouting/serve"
	"ftrouting/serve/api"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`    // shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a span whose interval is known after the fact.
func (t *tracer) add(name string, parent, req int, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: start, End: end})
}

type layerStat struct {
	count       int
	total, self time.Duration
	durations   []time.Duration
}

// layers sums every span name's count, total and self time: a span's
// self time is its duration minus the time its child spans cover.
func (t *tracer) layers() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		d := time.Duration(s.End - s.Start)
		ls.count++
		ls.total += d
		ls.self += d - time.Duration(child[i])
		ls.durations = append(ls.durations, d)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// direct calls the layers under the server through the public batch API,
// keeping fault contexts the way the server's cache keeps them.
type direct struct {
	scheme   any
	manifest *ftrouting.Manifest
	shards   []*ftrouting.Shard
	ctxs     map[string]any
}

// maxDirectContexts bounds the contexts the replay keeps; conn-cold never
// reuses one.
const maxDirectContexts = 256

func (d *direct) prepare(canon []ftrouting.EdgeID) (any, error) {
	switch v := d.scheme.(type) {
	case *ftrouting.ConnLabels:
		return v.PrepareFaults(canon)
	case *ftrouting.Router:
		rc, err := v.PrepareFaults(canon)
		if err != nil {
			return nil, err
		}
		return rc, rc.PrepareForbidden()
	}
	return nil, fmt.Errorf("no monolithic scheme")
}

func (d *direct) eval(ctx any, pairs []ftrouting.Pair, par int) error {
	opts := ftrouting.BatchOptions{Parallelism: par}
	var err error
	switch c := ctx.(type) {
	case *ftrouting.ConnFaultContext:
		_, err = c.ConnectedBatch(pairs, opts)
	case *ftrouting.RouteFaultContext:
		_, err = c.RouteForbiddenBatch(pairs, opts)
	}
	return err
}

// context returns the context stored under key, preparing it when it is
// missing or when the server prepared it for this request too; only the
// latter is timed, so prepare spans mirror the server's prepares.
func (d *direct) context(t *tracer, root, req int, key string, serverPrepared bool, prep func() (any, error)) (any, error) {
	ctx, ok := d.ctxs[key]
	if ok && !serverPrepared {
		return ctx, nil
	}
	id := -1
	if serverPrepared {
		id = t.begin("prepare", root, req)
	}
	ctx, err := prep()
	if id >= 0 {
		t.end(id)
	}
	if err != nil {
		return nil, err
	}
	if len(d.ctxs) >= maxDirectContexts {
		clear(d.ctxs)
	}
	d.ctxs[key] = ctx
	return ctx, nil
}

// run replays one request's layer calls under root. prepared reports
// whether the server prepared the context of a shard (0 when monolithic)
// while answering this request.
func (d *direct) run(t *tracer, root, req int, rq *Request, prepared func(shard int) bool) error {
	canon := ftrouting.CanonicalFaults(rq.Faults)
	pairs := make([]ftrouting.Pair, len(rq.Pairs))
	for i, p := range rq.Pairs {
		pairs[i] = ftrouting.Pair{S: p[0], T: p[1]}
	}
	if d.manifest == nil {
		ctx, err := d.context(t, root, req, fmt.Sprint(canon), prepared(0), func() (any, error) { return d.prepare(canon) })
		if err != nil {
			return err
		}
		return evalSpans(t, root, req, func(par int) error { return d.eval(ctx, pairs, par) })
	}
	id := t.begin("validate", root, req)
	plan, err := d.manifest.PlanBatch(ftrouting.QueryBatch{Pairs: pairs, Faults: canon})
	t.end(id)
	if err != nil {
		return err
	}
	ctxs := map[int]any{}
	for _, sid := range plan.ShardIDs() {
		key := fmt.Sprint(sid, plan.ShardFaults(sid), plan.DistinctFaults())
		sh := d.shards[sid]
		ctx, err := d.context(t, root, req, key, prepared(sid), func() (any, error) { return plan.PrepareShard(sh) })
		if err != nil {
			return err
		}
		ctxs[sid] = ctx
	}
	return evalSpans(t, root, req, func(par int) error {
		_, err := plan.EstimateBatch(ctxs, ftrouting.BatchOptions{Parallelism: par})
		return err
	})
}

// evalSpans times one batch evaluation at the batch API's default
// parallelism with every processor available (span eval), then
// sequentially (span eval.par1).
func evalSpans(t *tracer, root, req int, eval func(par int) error) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	id := t.begin("eval", root, req)
	err := eval(0)
	t.end(id)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	id = t.begin("eval.par1", root, req)
	err = eval(1)
	t.end(id)
	return err
}

// preparedSince compares two stats snapshots of the instrumented server.
func preparedSince(prev, cur api.StatsResponse) func(shard int) bool {
	if cur.Shards == nil {
		missed := cur.Cache.Misses > prev.Cache.Misses
		return func(int) bool { return missed }
	}
	before := map[int]uint64{}
	for _, row := range prev.Shards.Shards {
		before[row.ID] = row.ContextMisses
	}
	missed := map[int]bool{}
	for _, row := range cur.Shards.Shards {
		missed[row.ID] = row.ContextMisses > before[row.ID]
	}
	return func(id int) bool { return missed[id] }
}

// handlerStages are the serving stages a monolithic or sharded server
// times; the proxy-only merge stage is not among them.
var handlerStages = []string{"decode", "validate", "context", "eval"}

// tracedRun replays the sequence for about half the run length (whole
// rounds, at least one) and returns the per-layer metrics.
func tracedRun(dir string, seed uint64, s *system, last *setupRun, loads *loadResult, sets []*setupRun,
	phase *phaseResult, props *properties, e2e map[string]metric) (map[string]metric, error) {
	in := s.in
	o := serve.Observability{Metrics: obs.NewRegistry()}
	var (
		osrv *serve.Server
		err  error
	)
	d := &direct{scheme: last.scheme, shards: loads.shards, manifest: loads.manifest, ctxs: map[string]any{}}
	if s.sharded {
		m, err := ftrouting.LoadManifest(filepath.Join(last.dir, ftrouting.ManifestFileName))
		if err != nil {
			return nil, err
		}
		osrv, err = serve.NewSharded(m, serve.Options{ShardBudgetBytes: last.budget, Obs: o})
		if err != nil {
			return nil, err
		}
	} else if osrv, err = serve.New(last.scheme, serve.Options{Obs: o}); err != nil {
		return nil, err
	}
	rec := newRecorder()
	untimed := func(int) bool { return false }
	for i := range in.Warm {
		if code := rec.send(osrv, s.endpoint, in.Warm[i].Body); code != http.StatusOK {
			return nil, fmt.Errorf("traced warm-up request %d: status %d", i, code)
		}
		if err := d.run(&tracer{t0: time.Now()}, -1, i, &in.Warm[i], untimed); err != nil {
			return nil, fmt.Errorf("traced warm-up request %d: %w", i, err)
		}
	}

	tr := &tracer{t0: time.Now()}
	pairs := 0
	prev := osrv.Stats()
	replay := time.Now()
	for i := 0; i%in.RoundLen != 0 || i == 0 || time.Since(replay) < phase.wall/2; i++ {
		rq := &in.Seq[i%len(in.Seq)]
		root := tr.begin("request", -1, i)
		sv := tr.begin("serve", root, i)
		code := rec.send(osrv, s.endpoint+"?debug=timing", rq.Body)
		tr.end(sv)
		if code != http.StatusOK {
			return nil, fmt.Errorf("traced request %d: status %d: %.200s", i, code, rec.buf.Bytes())
		}
		var echo struct {
			Timing *api.Timing `json:"timing"`
		}
		if err := json.Unmarshal(rec.buf.Bytes(), &echo); err != nil || echo.Timing == nil {
			return nil, fmt.Errorf("traced request %d: no timing echo (%v)", i, err)
		}
		cursor := tr.spans[sv].Start
		for _, st := range echo.Timing.Stages {
			tr.add("handler."+st.Stage, sv, i, cursor, cursor+st.Nanos)
			cursor += st.Nanos
		}
		cur := osrv.Stats()
		if err := d.run(tr, root, i, rq, preparedSince(prev, cur)); err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		prev = cur
		tr.end(root)
		pairs += len(rq.Pairs)
	}
	layers := tr.layers()
	requests := layers["request"].count

	treeWall := 0.0
	if s.endpoint != endpointConnected {
		g, err := s.graph()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := treecover.BuildHierarchy(g, in.K); err != nil {
			return nil, err
		}
		treeWall = time.Since(t0).Seconds()
	}
	transport, err := loopback(last.srv, s.endpoint, in)
	if err != nil {
		return nil, err
	}
	tableBits := 0
	if r, ok := last.scheme.(*ftrouting.Router); ok {
		tableBits = r.MaxTableBits()
	}

	get := func(name string) *layerStat {
		if ls := layers[name]; ls != nil {
			return ls
		}
		return &layerStat{}
	}
	perReqUs := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(requests) }
	perPairUs := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(pairs) }
	serveSpans := get("serve")
	tracedP50 := ms(quantile(serveSpans.durations, 0.5))
	prep := get("prepare")
	evalUs, par1Us := perPairUs(get("eval").total), perPairUs(get("eval.par1").total)
	t := props // the untraced phase's counts
	m := map[string]metric{
		"build.wall_s":              {median(sets, func(r *setupRun) float64 { return r.buildWall }), "s"},
		"build.cpu_s":               {median(sets, func(r *setupRun) float64 { return r.buildCPU }), "s"},
		"treecover.wall_s":          {treeWall, "s"},
		"persist.save_s":            {median(sets, func(r *setupRun) float64 { return r.save }), "s"},
		"persist.load_s":            {loads.file, "s"},
		"persist.shard_load_ms_p50": {medianOf(loads.shardMs), "ms"},
		"shardcache.loads":          {float64(t.shardLoads), "count"},
		"shardcache.evictions":      {float64(t.shardEvictions), "count"},
		"shardcache.hit_ratio":      {t.shardHitRatio(), "ratio"},
		"ctxcache.hits":             {float64(t.ctxHits), "count"},
		"ctxcache.misses":           {float64(t.ctxMisses), "count"},
		"ctxcache.hit_ratio":        {t.ctxHitRatio(), "ratio"},
		"prepare.count":             {float64(prep.count), "count"},
		"prepare.ms_p50":            {ms(quantile(prep.durations, 0.5)), "ms"},
		"prepare.ms_max":            {ms(quantile(prep.durations, 1)), "ms"},
		"eval.us_per_pair":          {evalUs, "us"},
		"eval.par1_us_per_pair":     {par1Us, "us"},
		"parallel.speedup":          {ratio(par1Us, evalUs), "ratio"},
		"handler.self_us":           {perReqUs(serveSpans.self), "us"},
		"route.hops_per_pair":       {ratio(float64(t.hops), float64(t.pairs)), "hops"},
		"route.detections_per_pair": {ratio(float64(t.detections), float64(t.pairs)), "count"},
		"route.header_bits_max":     {float64(t.headerBits), "bits"},
		"route.table_bits_max":      {float64(tableBits), "bits"},
		"gc.cycles":                 {float64(phase.gcCycles), "count"},
		"gc.pause_ms":               {ms(phase.gcPause), "ms"},
		"alloc.bytes_per_pair":      {float64(phase.allocated) / float64(phase.pairs), "B"},
		"transport.us_per_req":      {transport, "us"},
		"host.steal_s":              {phase.steal, "s"},
		"trace.overhead_ratio":      {tracedP50/e2e["latency_p50_ms"].Value - 1, "ratio"},
		"input.disconnected_share":  {t.disconnectedShare, "ratio"},
		"input.uplink_fault_share":  {max(t.uplinkTreeShare, 0), "ratio"},
	}
	for _, st := range handlerStages {
		m["handler."+st+"_us"] = metric{perReqUs(get("handler." + st).total), "us"}
	}

	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("traced replay: %d requests, %d pairs; self time per span:\n", requests, pairs)
	for _, n := range names {
		ls := layers[n]
		fmt.Printf("  %-18s %7d spans  self %10.3f ms  mean self %10.2f us\n",
			n, ls.count, float64(ls.self)/1e6, float64(ls.self)/1e3/float64(ls.count))
	}
	serveTotal := serveSpans.total.Seconds()
	fmt.Println("end-to-end, untraced vs traced (ServeHTTP spans of the instrumented server):")
	fmt.Printf("  throughput_pairs_s %14.6g %14.6g\n", e2e["throughput_pairs_s"].Value, float64(pairs)/serveTotal)
	fmt.Printf("  latency_p50_ms     %14.6g %14.6g\n", e2e["latency_p50_ms"].Value, tracedP50)
	fmt.Printf("  latency_p90_ms     %14.6g %14.6g\n", e2e["latency_p90_ms"].Value, ms(quantile(serveSpans.durations, 0.9)))
	fmt.Printf("  tracing overhead on p50: %+.2f%%\n", 100*m["trace.overhead_ratio"].Value)

	path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", in.Workload, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)
	return m, nil
}

// loopback sends each of the first 32 requests of the sequence to the
// untraced server three times: in process to warm its context and shard, in process
// timed, and over a loopback HTTP connection timed. It returns the mean
// extra wall time per request of the loopback sends.
func loopback(h http.Handler, endpoint string, in *Inputs) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	client := &http.Client{Timeout: time.Minute}
	url := "http://" + ln.Addr().String() + endpoint
	rec := newRecorder()
	var over, inproc time.Duration
	n := min(in.RoundLen, 32)
	for i := 0; i < n && err == nil; i++ {
		body := in.Seq[i].Body
		rec.send(h, endpoint, body)
		t0 := time.Now()
		if code := rec.send(h, endpoint, body); code != http.StatusOK {
			err = fmt.Errorf("in-process request %d: status %d", i, code)
			break
		}
		inproc += time.Since(t0)
		t0 = time.Now()
		var resp *http.Response
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("loopback request %d: status %d", i, resp.StatusCode)
			}
		}
		over += time.Since(t0)
	}
	client.CloseIdleConnections()
	hs.Close()
	if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	return float64(over-inproc) / 1e3 / float64(n), nil
}
