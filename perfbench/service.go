package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/library"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/rapids"
	"repro/rapids/server"
	"repro/rapids/server/journal"
	"repro/rapids/server/store"
)

// Shape of the service traffic: each client posts an edit batch of
// editSize resizes to its session every editEvery-th operation; of its
// jobs, two in five repeat a spec it already ran and the rest are cold,
// cycling through the circuits in a seeded order.
const (
	clients    = 2
	editEvery  = 4
	editSize   = 4
	sessionCkt = "c3540"
	// svcSegments is the number of parts the timed section is cut into,
	// with the host calibrated between them.
	svcSegments = 10
)

// serviceCircuits are the small Table 1 circuits jobs carry inline.
func serviceCircuits(quick bool) []string {
	if quick {
		return []string{"c432", "alu2"}
	}
	return []string{"c432", "c499", "alu2", "c2670", "k2"}
}

// timedJournal wraps the file journal, timing each append and noting
// when each job's run started (its OpStarted entry).
type timedJournal struct {
	j   *journal.File
	rec *recorder

	mu      sync.Mutex
	appends int
	busy    time.Duration
	started map[string]time.Time
}

func (t *timedJournal) Replay(fn func(journal.Entry) error) error { return t.j.Replay(fn) }
func (t *timedJournal) Close() error                              { return t.j.Close() }

func (t *timedJournal) Append(e journal.Entry) error {
	t0 := time.Now()
	err := t.j.Append(e)
	t1 := time.Now()
	t.mu.Lock()
	t.appends++
	t.busy += t1.Sub(t0)
	if e.Op == journal.OpStarted {
		t.started[e.JobID] = t0
	}
	t.mu.Unlock()
	t.rec.add(0, 0, "journal.append", t0, t1, e.JobID)
	return err
}

// startedAt is when the job's run began, if it has.
func (t *timedJournal) startedAt(id string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.started[id]
	return at, ok
}

// timedStore wraps the directory store, timing gets and puts.
type timedStore struct {
	s   *store.Dir
	rec *recorder

	mu         sync.Mutex
	gets, puts int
	get, put   time.Duration
}

func (t *timedStore) Close() error { return t.s.Close() }

func (t *timedStore) Get(key string) (store.Entry, bool, error) {
	t0 := time.Now()
	e, ok, err := t.s.Get(key)
	t1 := time.Now()
	t.mu.Lock()
	t.gets++
	t.get += t1.Sub(t0)
	t.mu.Unlock()
	t.rec.add(0, 0, "store.get", t0, t1, key8(key))
	return e, ok, err
}

func (t *timedStore) Put(e store.Entry) error {
	t0 := time.Now()
	err := t.s.Put(e)
	t1 := time.Now()
	t.mu.Lock()
	t.puts++
	t.put += t1.Sub(t0)
	t.mu.Unlock()
	t.rec.add(0, 0, "store.put", t0, t1, key8(e.Key))
	return err
}

func key8(key string) string {
	if len(key) > 8 {
		return key[:8]
	}
	return key
}

// runClients runs the closed-loop clients until deadline, each
// finishing the operation it is in. A client makes at least one
// operation in a run.
func (st *serviceSetup) runClients(deadline time.Time, circuits []string, texts map[string]string, rec *recorder) {
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			for k := len(c.jobs); k == 0 || time.Now().Before(deadline); k++ {
				// A traced run traces every other block of editEvery
				// operations; the untraced ones give the tracing
				// overhead.
				traced := rec != nil && (k/editEvery)%2 == 0
				begin := time.Now()
				var r jobRecord
				if k%editEvery == editEvery-1 {
					r = c.edit(st.base, traced)
				} else {
					r = c.job(st.base, circuits, texts, traced)
				}
				r.begin, r.finish = begin, time.Now()
				c.jobs = append(c.jobs, r)
			}
		}(c)
	}
	wg.Wait()
}

// serviceSetup is a running in-process server with its clients.
type serviceSetup struct {
	dir     string
	journal *timedJournal
	store   *timedStore
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*svcClient
}

// svcClient is one closed-loop client with its own connection and
// session.
type svcClient struct {
	id      int
	hc      *http.Client
	rng     *rand.Rand
	session string
	gates   []*network.Gate
	lib     *library.Library
	seeds   map[int64]bool // placement seeds of the client's cold specs
	order   []int          // circuit indices in the client's seeded order
	njobs   int            // jobs submitted
	done    [][]byte       // request bodies of finished cold jobs
	results map[string][]byte

	jobs     []jobRecord
	rows     []harness.BatchRow
	problems []string
}

// jobRecord is one measured client operation.
type jobRecord struct {
	kind   string // cold, hit, edit
	circ   string // the circuit of a cold job
	traced bool
	ok     bool
	jobID  string
	// begin and finish bound the whole client operation: building the
	// request, the round trips, and checking the reply. start and end
	// bound the round trips the latency metrics count.
	begin, finish time.Time
	start, end    time.Time
	submitEnd     time.Time
	queued        time.Duration
	ran           time.Duration
	apply         time.Duration // edit: Delta.Elapsed
}

// runService is the service workload: two closed-loop clients submit
// inline-netlist jobs (cold or repeated) and session edit batches to an
// in-process rapids/server over loopback.
func runService(cfg config, rec *recorder) (*outcome, error) {
	o := newOutcome()
	circuits := serviceCircuits(cfg.quick)
	texts := map[string]string{}
	sessGates, err := sessionGates()
	if err != nil {
		return nil, err
	}
	n := 0
	st, setup, err := medianSetup(setupRepeats(cfg), o.cal, func() (*serviceSetup, error) {
		for _, name := range circuits {
			b, err := blifText(name)
			if err != nil {
				return nil, err
			}
			texts[name] = string(b)
		}
		n++
		return startService(cfg, n, sessGates, rec)
	}, func(st *serviceSetup) { st.stop() })
	if err != nil {
		return nil, err
	}
	defer st.stop()
	o.m["setup_s"] = setup

	before, err := scrape(st.clients[0].hc, st.base)
	if err != nil {
		return nil, err
	}
	// The timed section runs in svcSegments segments. Between them the
	// clients pause, the server goes idle, and a burst of calibration
	// samples measures the host alone: samples taken beside the load
	// would measure the load as well.
	rt := startTimed()
	start := time.Now()
	segment := time.Duration(cfg.seconds * float64(time.Second) / svcSegments)
	for s := 0; s < svcSegments; s++ {
		o.cal.burst()
		st.runClients(time.Now().Add(segment), circuits, texts, rec)
	}
	o.cal.burst()
	elapsed := time.Since(start)
	after, err := scrape(st.clients[0].hc, st.base)
	if err != nil {
		return nil, err
	}

	var all []jobRecord
	var rows []harness.BatchRow
	for _, c := range st.clients {
		all = append(all, c.jobs...)
		rows = append(rows, c.rows...)
	}
	for _, j := range all {
		o.attempted++
		if !j.ok {
			o.failed++
		}
	}
	for _, c := range st.clients {
		o.problems = append(o.problems, c.problems...)
	}
	delta := &harness.MetricsDelta{Before: before, After: after}
	rerr := delta.Reconcile(rows)
	o.check(rerr == nil, "final scrape: %v", rerr)

	var cold, hit, edit, submit, queue, ran, other, apply []float64
	coldByCirc := map[string][]float64{}
	jobs := 0
	for _, j := range all {
		if !j.ok {
			continue
		}
		lat := j.end.Sub(j.start)
		switch j.kind {
		case "cold":
			jobs++
			cold = append(cold, ms(lat))
			coldByCirc[j.circ] = append(coldByCirc[j.circ], ms(lat))
			queue = append(queue, j.queued.Seconds())
			ran = append(ran, j.ran.Seconds())
			other = append(other, (lat - j.submitEnd.Sub(j.start) - j.queued - j.ran).Seconds())
			submit = append(submit, j.submitEnd.Sub(j.start).Seconds())
		case "hit":
			jobs++
			hit = append(hit, ms(lat))
			submit = append(submit, j.submitEnd.Sub(j.start).Seconds())
		case "edit":
			edit = append(edit, ms(lat))
			apply = append(apply, j.apply.Seconds())
		}
	}
	speed := o.emitTimed(rt, start, elapsed, jobs)
	// The cold-job latency: each circuit's mean, averaged over the
	// circuits, at the reference speed. A cold job waits behind the other
	// client's job or it does not, so a median of a few dozen jobs jumps
	// between the two cases; the mean does not.
	for _, lats := range coldByCirc {
		o.m["op_ms"] += mean(lats) / float64(len(coldByCirc)) * speed
	}
	if rec == nil {
		return o, nil
	}
	o.m["job_p50_ms"] = quantile(cold, 0.5)
	o.m["job_p90_ms"] = quantile(cold, 0.9)
	o.m["hit_p50_ms"] = quantile(hit, 0.5)
	o.m["edit_p50_ms"] = quantile(edit, 0.5)
	o.m["jobs_per_s"] = float64(jobs) / elapsed.Seconds()
	o.m["server.submit_s"] = mean(submit)
	o.m["server.queue_wait_s"] = mean(queue)
	o.m["server.run_s"] = mean(ran)
	o.m["server.other_s"] = mean(other)
	o.m["server.edit_apply_s"] = mean(apply)
	sub := func(outcome string) float64 {
		return delta.Delta(`rapidsd_submissions_total{outcome="` + outcome + `"}`)
	}
	if total := sub("accepted") + sub("cache_hit") + sub("store_hit"); total > 0 {
		o.m["server.hit_ratio"] = (sub("cache_hit") + sub("store_hit")) / total
	}
	o.m["server.rejected"] = sub("rejected_queue_full") + sub("rejected_draining") + sub("rejected_journal")

	st.journal.mu.Lock()
	o.m["journal.appends"] = float64(st.journal.appends)
	if st.journal.appends > 0 {
		o.m["journal.append_s"] = st.journal.busy.Seconds() / float64(st.journal.appends)
	}
	st.journal.mu.Unlock()
	st.store.mu.Lock()
	o.m["store.puts"] = float64(st.store.puts)
	o.m["store.gets"] = float64(st.store.gets)
	if st.store.puts > 0 {
		o.m["store.put_s"] = st.store.put.Seconds() / float64(st.store.puts)
	}
	if st.store.gets > 0 {
		o.m["store.get_s"] = st.store.get.Seconds() / float64(st.store.gets)
	}
	st.store.mu.Unlock()

	tracedOps, split := serviceSplit(rec, all, st.journal)
	emitSplit(o.m, split, tracedOps)
	o.m["trace.overhead_pct"] = overheadPct(all)
	return o, nil
}

func (c *svcClient) fail(format string, args ...any) {
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// sessionGates lists the gates session edits may resize.
func sessionGates() ([]*network.Gate, error) {
	c, err := rapids.Generate(sessionCkt)
	if err != nil {
		return nil, err
	}
	var gs []*network.Gate
	c.Network().Gates(func(g *network.Gate) {
		if !g.IsInput() {
			gs = append(gs, g)
		}
	})
	return gs, nil
}

// startService opens the journal and store in a fresh directory, starts
// the server on a loopback listener, and opens each client's session.
func startService(cfg config, n int, gates []*network.Gate, rec *recorder) (*serviceSetup, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("service-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &serviceSetup{dir: dir}
	jf, err := journal.OpenFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		st.stop()
		return nil, err
	}
	st.journal = &timedJournal{j: jf, rec: rec, started: map[string]time.Time{}}
	sd, err := store.OpenDir(filepath.Join(dir, "store"))
	if err != nil {
		st.stop()
		return nil, err
	}
	st.store = &timedStore{s: sd, rec: rec}
	st.srv, err = server.New(server.Config{Workers: 1, Journal: st.journal, Store: st.store})
	if err != nil {
		st.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()

	for i := 0; i < clients; i++ {
		c := &svcClient{
			id: i,
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			rng:     rand.New(rand.NewSource(cfg.seed*clients + int64(i))),
			gates:   gates,
			lib:     library.Default035(),
			seeds:   map[int64]bool{},
			results: map[string][]byte{},
		}
		st.clients = append(st.clients, c)
		body, _ := json.Marshal(server.SessionRequest{
			Generate: sessionCkt,
			Place:    &server.PlaceSpec{Seed: 1 + c.rng.Int63n(1<<30)},
		})
		var ss server.SessionStatus
		if code, err := c.post(st.base+"/v1/sessions", body, &ss); err != nil || code != http.StatusCreated {
			st.stop()
			return nil, fmt.Errorf("opening session: %d %v", code, err)
		}
		c.session = ss.ID
	}
	return st, nil
}

// stop shuts the server down and removes its directory.
func (st *serviceSetup) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.hs != nil {
		st.hs.Shutdown(ctx)
		<-st.served
		st.hs = nil
	}
	for _, c := range st.clients {
		c.hc.CloseIdleConnections()
	}
	if st.srv != nil {
		st.srv.Shutdown(ctx)
		st.srv = nil
	}
	if st.journal != nil {
		st.journal.Close()
		st.journal = nil
	}
	if st.store != nil {
		st.store.Close()
		st.store = nil
	}
	os.RemoveAll(st.dir)
}

// post sends a JSON body and decodes a JSON reply into out.
func (c *svcClient) post(url string, body []byte, out any) (int, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// jobStatus is the part of server.JobStatus the client checks, with the
// result kept as raw bytes for the byte-identity check.
type jobStatus struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
	QueuedFor time.Duration   `json:"queued_for_ns"`
	RanFor    time.Duration   `json:"ran_for_ns"`
	Result    json.RawMessage `json:"result"`
}

// job submits one cold or repeated spec and waits for its SSE end event.
func (c *svcClient) job(base string, circuits []string, texts map[string]string, traced bool) jobRecord {
	var body []byte
	var name string
	kind := "cold"
	c.njobs++
	if n := c.njobs % 5; len(c.done) > 0 && (n == 2 || n == 4) {
		kind = "hit"
		body = c.done[c.rng.Intn(len(c.done))]
	} else {
		if len(c.order) == 0 {
			c.order = c.rng.Perm(len(circuits))
		}
		name = circuits[c.order[0]]
		c.order = c.order[1:]
		var seed int64
		for seed == 0 || c.seeds[seed] {
			seed = (1+c.rng.Int63n(1<<40))*clients + int64(c.id)
		}
		c.seeds[seed] = true
		body, _ = json.Marshal(server.JobRequest{
			Netlist: texts[name], Format: "blif",
			Place:   &server.PlaceSpec{Seed: seed},
			Options: rapids.Spec{Workers: 1},
		})
	}
	r := jobRecord{kind: kind, circ: name, traced: traced, start: time.Now()}
	var st jobStatus
	code, err := c.post(base+"/v1/jobs", body, &st)
	r.submitEnd = time.Now()
	r.jobID = st.ID
	row := harness.BatchRow{JobID: st.ID}
	if code == http.StatusServiceUnavailable {
		row.Retried503 = 1
	}
	if err != nil {
		c.fail("submit: %v", err)
		c.rows = append(c.rows, row)
		r.end = time.Now()
		return r
	}
	fin, err := c.events(base + "/v1/jobs/" + st.ID + "/events")
	r.end = time.Now()
	row.State = fin.State
	c.rows = append(c.rows, row)
	if err != nil {
		c.fail("job %s events: %v", st.ID, err)
		return r
	}
	r.queued, r.ran = fin.QueuedFor, fin.RanFor
	if err := c.checkJob(kind, body, fin); err != nil {
		c.fail("job %s (%s): %v", st.ID, kind, err)
		return r
	}
	if kind == "cold" {
		c.done = append(c.done, body)
	}
	r.ok = true
	return r
}

// checkJob checks a finished job: done and verified, and for a repeat,
// served from the cache with the cold run's exact bytes.
func (c *svcClient) checkJob(kind string, body []byte, fin jobStatus) error {
	if fin.State != server.StateDone {
		return fmt.Errorf("state %s: %s", fin.State, fin.Error)
	}
	var res rapids.Result
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		return err
	}
	if err := checkVerified(&res, nil); err != nil {
		return err
	}
	key := string(body)
	if kind == "cold" {
		c.results[key] = append([]byte(nil), fin.Result...)
		return nil
	}
	if !fin.Cached {
		return errors.New("repeat was not served from the cache")
	}
	return checkRepeat(c.results[key], fin.Result)
}

// events reads an SSE stream to its end event and decodes the final
// status.
func (c *svcClient) events(url string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.hc.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	end := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			end = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && end {
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return st, err
			}
			_, err := io.Copy(io.Discard, resp.Body)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended without an end event")
}

// edit posts one batch of resizes to the client's session.
func (c *svcClient) edit(base string, traced bool) jobRecord {
	edits := make([]rapids.Edit, 0, editSize)
	used := map[string]bool{}
	for len(edits) < editSize {
		g := c.gates[c.rng.Intn(len(c.gates))]
		size := c.rng.Intn(library.NumSizes)
		if used[g.Name()] {
			continue
		}
		if _, err := c.lib.Cell(g.Type, g.NumFanins(), size); err != nil {
			continue
		}
		used[g.Name()] = true
		edits = append(edits, rapids.Edit{Kind: rapids.EditResize, Gate: g.Name(), Size: size})
	}
	body, _ := json.Marshal(map[string]any{"edits": edits})
	r := jobRecord{kind: "edit", traced: traced, jobID: c.session, start: time.Now()}
	var resp server.EditResponse
	_, err := c.post(base+"/v1/sessions/"+c.session+"/edits", body, &resp)
	r.end = time.Now()
	r.submitEnd = r.end
	if err != nil {
		c.fail("session edit: %v", err)
		return r
	}
	if len(resp.Deltas) != 1 || resp.Deltas[0].Edits != editSize {
		c.fail("session edit: %d deltas", len(resp.Deltas))
		return r
	}
	r.apply = resp.Deltas[0].Elapsed
	r.ok = true
	return r
}

// scrape reads the server's /metrics exposition.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	return metrics.Parse(resp.Body)
}

// serviceSplit builds each traced operation's span tree. A job is its
// submit and its SSE wait; inside the wait sit the queue and run spans,
// placed from the journal's OpStarted time and the job's QueuedFor and
// RanFor. Journal and store spans recorded inside the server are
// attached to the operation they served (by job or session id, or by
// cache-key prefix, within the operation's interval) and to the
// innermost span containing them.
func serviceSplit(rec *recorder, all []jobRecord, j *timedJournal) (int, split) {
	type opSpans struct {
		r        jobRecord
		op, root int
		inner    []span // candidate parents, outermost first
	}
	var ops []*opSpans
	for _, r := range all {
		if !r.traced || !r.ok {
			continue
		}
		o := &opSpans{r: r, op: rec.newOp()}
		o.root = rec.add(o.op, 0, "bench."+r.kind, r.begin, r.finish, r.jobID)
		child := func(parent int, name string, start, end time.Time) span {
			s := span{ID: rec.add(o.op, parent, name, start, end, r.jobID), Start: start, End: end}
			o.inner = append(o.inner, s)
			return s
		}
		if r.kind == "edit" {
			call := child(o.root, "http.edit", r.start, r.end)
			rec.add(o.op, call.ID, "session.mutate_retime", r.end.Add(-r.apply), r.end, r.jobID)
			ops = append(ops, o)
			continue
		}
		child(o.root, "http.submit", r.start, r.submitEnd)
		wait := child(o.root, "http.events", r.submitEnd, r.end)
		if at, ok := j.startedAt(r.jobID); ok && r.kind == "cold" {
			// A worker may pick the job up before the submit reply
			// arrives; the tree clips that overlap to the wait.
			if at.Before(r.submitEnd) {
				at = r.submitEnd
			}
			end := at.Add(r.ran)
			if end.After(r.end) {
				end = r.end
			}
			rec.add(o.op, wait.ID, "server.queue", r.submitEnd, at, r.jobID)
			child(wait.ID, "server.run", at, end)
		}
		ops = append(ops, o)
	}
	for _, s := range rec.snapshot() {
		if s.Op != 0 {
			continue
		}
		for _, o := range ops {
			match := s.Ref == o.r.jobID
			if s.layer() == "store" {
				match = strings.HasSuffix(o.r.jobID, "-"+s.Ref)
			}
			if !match || s.Start.Before(o.r.begin) || s.End.After(o.r.finish) {
				continue
			}
			parent := o.root
			for _, in := range o.inner {
				if !s.Start.Before(in.Start) && !s.End.After(in.End) {
					parent = in.ID
				}
			}
			rec.reparent(s.ID, o.op, parent)
			break
		}
	}
	var spans []span
	for _, s := range rec.snapshot() {
		if s.Op != 0 {
			spans = append(spans, s)
		}
	}
	return len(ops), selfTimes(spans)
}

// overheadPct compares the cold-job latency median of the traced half
// with the untraced half.
func overheadPct(all []jobRecord) float64 {
	var on, off []float64
	for _, r := range all {
		if r.ok && r.kind == "cold" {
			if r.traced {
				on = append(on, ms(r.end.Sub(r.start)))
			} else {
				off = append(off, ms(r.end.Sub(r.start)))
			}
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (quantile(on, 0.5)/quantile(off, 0.5) - 1)
}
