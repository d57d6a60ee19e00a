package main

// Set-up, the timed phase and answer checking: everything a run does to
// the program with tracing off.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ftrouting"
	"ftrouting/serve"
	"ftrouting/serve/api"
)

const (
	endpointConnected      = "/v1/connected"
	endpointEstimate       = "/v1/estimate"
	endpointRouteForbidden = "/v1/route-forbidden"
	schemeFile             = "scheme.ftl"
)

// system is the program under one workload: which scheme it builds, how
// it is persisted and which endpoint serves it.
type system struct {
	in       *Inputs
	seed     uint64
	endpoint string
	sharded  bool
}

func newSystem(in *Inputs, seed uint64) *system {
	s := &system{in: in, seed: seed}
	switch in.Workload {
	case "conn-hot", "conn-cold":
		s.endpoint = endpointConnected
	case "dist-sharded":
		s.endpoint, s.sharded = endpointEstimate, true
	default:
		s.endpoint = endpointRouteForbidden
	}
	return s
}

// setupRun is one set-up from the edge list to a warm server.
type setupRun struct {
	wall, cpu           float64 // the whole set-up
	buildWall, buildCPU float64
	save                float64
	schemeBytes         int64
	budget              int64 // shard budget of a sharded server

	srv      *serve.Server
	scheme   any // monolithic: the reopened scheme the server holds
	manifest *ftrouting.Manifest
	dir      string
}

// release drops the set-up's server so that only the last one stays
// resident.
func (s *setupRun) release() { s.srv, s.scheme, s.manifest = nil, nil, nil }

// graph hands the generated edge list to the program.
func (s *system) graph() (*ftrouting.Graph, error) {
	g := ftrouting.NewGraph(s.in.N)
	for i, e := range s.in.Edges {
		if _, err := g.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
}

func (s *system) build(g *ftrouting.Graph) (any, error) {
	switch s.endpoint {
	case endpointConnected:
		return ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: s.seed})
	case endpointEstimate:
		return ftrouting.BuildDistanceLabels(g, s.in.F, s.in.K, s.seed)
	default:
		return ftrouting.NewRouter(g, s.in.F, s.in.K, ftrouting.RouterOptions{Seed: s.seed})
	}
}

// save persists a monolithic scheme to one file.
func saveScheme(path string, scheme any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	switch v := scheme.(type) {
	case *ftrouting.ConnLabels:
		err = ftrouting.SaveConnLabels(w, v)
	case *ftrouting.DistLabels:
		err = ftrouting.SaveDistLabels(w, v)
	case *ftrouting.Router:
		err = ftrouting.SaveRouter(w, v)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadScheme(path string) (any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ftrouting.LoadScheme(bufio.NewReader(f))
}

// shardBudget lets half the shards be resident at once: the bytes of the
// largest half. Shards are of nearly equal size, so any half fits and one
// more shard never does, whatever the seed.
func shardBudget(m *ftrouting.Manifest) int64 {
	sizes := make([]int64, m.NumShards())
	for id := range sizes {
		sizes[id] = m.ShardBytes(id)
	}
	slices.Sort(sizes)
	var total int64
	for _, b := range sizes[len(sizes)/2:] {
		total += b
	}
	return total
}

// setup builds, saves, reopens and warms one server in dir.
func (s *system) setup(dir string) (*setupRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	runtime.GC()
	st := &setupRun{dir: dir}
	c0, t0 := cpuSeconds(), time.Now()
	g, err := s.graph()
	if err != nil {
		return nil, err
	}
	bc0, b0 := cpuSeconds(), time.Now()
	built, err := s.build(g)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	st.buildWall, st.buildCPU = time.Since(b0).Seconds(), cpuSeconds()-bc0

	s0 := time.Now()
	if s.sharded {
		_, err = ftrouting.SaveShardedDist(dir, built.(*ftrouting.DistLabels), ftrouting.ShardOptions{})
	} else {
		err = saveScheme(filepath.Join(dir, schemeFile), built)
	}
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	st.save = time.Since(s0).Seconds()
	built, g = nil, nil

	if s.sharded {
		st.manifest, err = ftrouting.LoadManifest(filepath.Join(dir, ftrouting.ManifestFileName))
		if err != nil {
			return nil, fmt.Errorf("load manifest: %w", err)
		}
		st.budget = shardBudget(st.manifest)
		st.srv, err = serve.NewSharded(st.manifest, serve.Options{ShardBudgetBytes: st.budget})
	} else {
		st.scheme, err = loadScheme(filepath.Join(dir, schemeFile))
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		st.srv, err = serve.New(st.scheme, serve.Options{})
	}
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	for i := range s.in.Warm {
		if code := rec.send(st.srv, s.endpoint, s.in.Warm[i].Body); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %d: status %d: %s", i, code, rec.buf.Bytes())
		}
	}
	st.wall, st.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	st.schemeBytes, err = dirBytes(dir)
	return st, err
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}

// send posts one body to h and returns the status; the response body is
// left in r.buf.
func (r *recorder) send(h http.Handler, path string, body []byte) int {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the path is one of the fixed endpoint constants
	}
	clear(r.hdr)
	r.status = 0
	r.buf.Reset()
	h.ServeHTTP(r, req)
	return r.status
}

// sentReq is one request of the timed phase.
type sentReq struct {
	seq    int // index into Inputs.Seq
	status int
	body   []byte
}

// phaseResult is what the timed phase measured.
type phaseResult struct {
	sent      []sentReq
	latencies []time.Duration
	pairs     int
	wall      time.Duration
	cpu       float64 // process CPU seconds, user+sys
	steal     float64 // host steal seconds over all CPUs
	gcCycles  uint32
	gcPause   time.Duration
	allocated uint64
}

// timedPhase sends whole rounds of the request sequence, one request at
// a time, until dur has passed. Bodies were encoded beforehand and
// responses are only copied here; checking happens afterwards.
func timedPhase(h http.Handler, endpoint string, in *Inputs, dur time.Duration) *phaseResult {
	rec := newRecorder()
	p := &phaseResult{}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var copied uint64
	steal0, cpu0, t0 := stealSeconds(), cpuSeconds(), time.Now()
	for i := 0; i%in.RoundLen != 0 || i == 0 || time.Since(t0) < dur; i++ {
		q := i % len(in.Seq)
		body := in.Seq[q].Body
		r0 := time.Now()
		code := rec.send(h, endpoint, body)
		p.latencies = append(p.latencies, time.Since(r0))
		p.sent = append(p.sent, sentReq{seq: q, status: code, body: bytes.Clone(rec.buf.Bytes())})
		copied += uint64(rec.buf.Len())
		p.pairs += len(in.Seq[q].Pairs)
	}
	p.wall = time.Since(t0)
	p.cpu = cpuSeconds() - cpu0
	p.steal = stealSeconds() - steal0
	runtime.ReadMemStats(&m1)
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.allocated = m1.TotalAlloc - m0.TotalAlloc - copied // less the response copies
	return p
}

// checkResult is the verdict on every answer of the timed phase.
type checkResult struct {
	endpoint string
	failed   int      // requests with a non-200 status or a wrong answer
	wrong    int      // requests with a wrong answer
	notes    []string // the first few failures
	// tally covers the first response to each distinct request, so it
	// does not depend on how many rounds a run managed.
	tally Tally
}

func (c *checkResult) stretchMean() float64 {
	if c.endpoint == endpointConnected {
		return 1 // connectivity answers are exact: any other answer fails the check
	}
	if c.tally.Connected == 0 {
		return 0
	}
	return c.tally.StretchSum / float64(c.tally.Connected)
}

// checkAnswers checks every response of the phase against the oracle.
func checkAnswers(o *Oracle, s *system, p *phaseResult) *checkResult {
	c := &checkResult{endpoint: s.endpoint}
	bySeq := map[int][]int{}
	var order []int
	for i, r := range p.sent {
		if _, ok := bySeq[r.seq]; !ok {
			order = append(order, r.seq)
		}
		bySeq[r.seq] = append(bySeq[r.seq], i)
	}
	for _, q := range order {
		rq := &s.in.Seq[q]
		truth := o.NewTruth(s.endpoint, rq)
		for n, i := range bySeq[q] {
			r := &p.sent[i]
			if r.status != http.StatusOK {
				c.failed++
				c.note(fmt.Sprintf("request %d: status %d: %.200s", i, r.status, r.body))
				continue
			}
			t := &Tally{}
			if n == 0 {
				t = &c.tally
			}
			if err := s.checkBody(o, truth, rq, r.body, t); err != nil {
				c.failed++
				c.wrong++
				c.note(fmt.Sprintf("request %d (sequence %d): %v", i, q, err))
			}
		}
	}
	return c
}

func (c *checkResult) note(msg string) {
	if len(c.notes) < 10 {
		c.notes = append(c.notes, msg)
	}
}

// checkBody decodes one response and checks it.
func (s *system) checkBody(o *Oracle, truth *Truth, rq *Request, body []byte, t *Tally) error {
	switch s.endpoint {
	case endpointConnected:
		var resp api.ConnectedResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return truth.CheckConn(rq.Pairs, resp.Results, t)
	case endpointEstimate:
		var resp api.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return truth.CheckEstimate(rq, s.in.K, ftrouting.Unreachable, resp.Estimates, t)
	default:
		var resp api.RouteResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return o.CheckRoute(truth, rq, s.in.K, ftrouting.Inf, resp.Results, t)
	}
}

// loadResult is the daemon-restart measurement.
type loadResult struct {
	ready    float64 // load_s: median time to a ready server
	file     float64 // persist.load_s: the same without server construction
	shardMs  []float64
	shards   []*ftrouting.Shard // sharded: every shard, from the last trial
	manifest *ftrouting.Manifest
}

// loadTimes measures a daemon restart after the timed phase, trials
// times: reopening the scheme file, or the manifest and then every shard,
// into a ready server.
func (s *system) loadTimes(dir string, trials int) (*loadResult, error) {
	lr := &loadResult{}
	var ready, file []float64
	for i := 0; i < trials; i++ {
		lr.shards = nil
		runtime.GC()
		t0 := time.Now()
		var (
			read time.Duration
			err  error
		)
		if s.sharded {
			lr.manifest, err = ftrouting.LoadManifest(filepath.Join(dir, ftrouting.ManifestFileName))
			if err != nil {
				return nil, err
			}
			read = time.Since(t0)
			for id := 0; id < lr.manifest.NumShards(); id++ {
				l0 := time.Now()
				sh, err := lr.manifest.LoadShard(id)
				if err != nil {
					return nil, fmt.Errorf("load shard %d: %w", id, err)
				}
				lr.shardMs = append(lr.shardMs, float64(time.Since(l0))/1e6)
				lr.shards = append(lr.shards, sh)
				read += time.Since(l0)
			}
			_, err = serve.NewSharded(lr.manifest, serve.Options{ShardBudgetBytes: shardBudget(lr.manifest)})
		} else {
			var scheme any
			if scheme, err = loadScheme(filepath.Join(dir, schemeFile)); err != nil {
				return nil, err
			}
			read = time.Since(t0)
			_, err = serve.New(scheme, serve.Options{})
		}
		if err != nil {
			return nil, err
		}
		ready = append(ready, time.Since(t0).Seconds())
		file = append(file, read.Seconds())
	}
	lr.ready, lr.file = medianOf(ready), medianOf(file)
	fmt.Printf("restart trials (s): %.4f\n", ready)
	return lr, nil
}

// labelBitsMax is the largest vertex or edge label of the served scheme.
func (s *system) labelBitsMax(last *setupRun, lr *loadResult) int {
	best := 0
	switch v := last.scheme.(type) {
	case *ftrouting.ConnLabels:
		for u := int32(0); u < int32(s.in.N); u++ {
			best = max(best, v.VertexLabel(u).Bits())
		}
		for e := range s.in.Edges {
			best = max(best, v.EdgeLabel(ftrouting.EdgeID(e)).Bits())
		}
	case *ftrouting.Router:
		for u := int32(0); u < int32(s.in.N); u++ {
			best = max(best, v.LabelBits(u))
		}
	}
	for _, sh := range lr.shards {
		d := sh.Scheme().(*ftrouting.DistLabels)
		mine := map[int]bool{}
		for _, c := range sh.Components() {
			mine[int(c)] = true
		}
		for u := int32(0); u < int32(s.in.N); u++ {
			if mine[lr.manifest.ComponentOf(u)] {
				best = max(best, d.VertexLabelBits(u))
			}
		}
		for e, ed := range s.in.Edges {
			if mine[lr.manifest.ComponentOf(ed.U)] {
				best = max(best, d.EdgeLabelBits(ftrouting.EdgeID(e)))
			}
		}
	}
	return best
}

// cpuSeconds is the process CPU time, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer does not fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds reads the host's cumulative steal time over all CPUs from
// /proc/stat (0 where it is not available).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
