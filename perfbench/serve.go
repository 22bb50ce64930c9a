package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"selectivemt"
	"selectivemt/internal/gen"
	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/server"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/verilog"
)

// serve-mixed shape: a closed loop of serveClients clients, each job
// followed to its report before the client submits the next. A round is
// every repeated spec once plus uploadsPerRound fresh uploads, in a
// seeded order; a run is whole parts of whole rounds, at least
// serveMinJobs jobs so the 90th percentile has 10 samples beyond it.
const (
	serveClients    = 2
	uploadsPerRound = 4
	uploadInstances = 4000
	serveMinJobs    = 100
	bootReps        = 3
	// serveRoundsPerPart is how many rounds one part (one server
	// process) serves: 64 jobs, about 16 s on 2 CPUs.
	serveRoundsPerPart = 4
)

// repeatedSpecs are the benchmark-circuit jobs every round repeats. They
// vary the technique subset, corner sign-off and the assignment
// strategy, with and without timing partitions (the serial sensitivity
// engine and the lanes). Repeats read the warm analysis cache.
var repeatedSpecs = []selectivemt.JobSpec{
	{Circuit: "small"},
	{Circuit: "a"},
	{Circuit: "b"},
	{Circuit: "a", Techniques: []string{"dual"}},
	{Circuit: "b", Techniques: []string{"conventional", "improved"}},
	{Circuit: "small", Corners: []string{"all"}},
	{Circuit: "a", Techniques: []string{"dual"}, Corners: []string{"all"}},
	{Circuit: "b", Strategy: "sensitivity"},
	{Circuit: "a", Strategy: "sensitivity", Partitions: 4},
	{Circuit: "small", Techniques: []string{"improved"}, Strategy: "sensitivity", Partitions: 4},
	{Circuit: "b", Techniques: []string{"dual"}, Corners: []string{"all"}, Strategy: "sensitivity", Partitions: 4},
	{Circuit: "a", Techniques: []string{"improved"}},
}

// qualitySpec is the repeated spec whose Improved-SMT result gives the
// workload's leak_mw and area_um2.
const qualitySpec = 1

// uploadTechniques are the techniques an upload runs. Improved-SMT is
// left out: on generated circuits its crosstalk abort depends on the
// circuit, so it would make the failed share depend on the seed.
var uploadTechniques = []string{"dual", "conventional"}

// servedJob is one job of the mix: a repeated spec (repeat >= 0) or an
// upload.
type servedJob struct {
	name   string
	spec   selectivemt.JobSpec
	repeat int
}

// upload is one generated Verilog netlist and the module it came from.
type upload struct {
	module   *gen.Module
	verilog  string
	periodNs float64
}

// stageRecord is one SSE stage frame.
type stageRecord struct {
	Task      string  `json:"task"`
	Stage     string  `json:"stage"`
	State     string  `json:"state"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Error     string  `json:"error"`
	at        time.Time
}

// techniqueResult is the part of a /result technique view the checks read.
type techniqueResult struct {
	Technique       string  `json:"technique"`
	AreaUm2         float64 `json:"area_um2"`
	StandbyLeakMW   float64 `json:"standby_leak_mw"`
	WNSNs           float64 `json:"wns_ns"`
	WorstHoldNs     float64 `json:"worst_hold_ns"`
	Clusters        int     `json:"clusters"`
	HoldersInserted int     `json:"holders_inserted"`
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	job                        servedJob
	start, end                 time.Time
	submit, fetch              time.Duration
	status, errMsg             string
	created, started, finished time.Time
	stages                     []stageRecord
	result                     []techniqueResult
	report                     string
	err                        error // transport or protocol failure
}

// client is one closed-loop client of the in-process server.
type client struct {
	base string
	id   string
	http *http.Client
}

// do submits a job, follows it over SSE until it is done, then fetches
// its result and report (the latency ends there) and its status.
func (c *client) do(j servedJob) *jobRecord {
	rec := &jobRecord{job: j, start: time.Now()}
	rec.err = c.run(rec)
	return rec
}

func (c *client) run(rec *jobRecord) error {
	body, err := json.Marshal(rec.job.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequest("POST", c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(server.ClientIDHeader, c.id)
	var acc struct {
		ID string `json:"id"`
	}
	if err := c.call(req, http.StatusAccepted, &acc); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.submit = time.Since(rec.start)

	if err := c.follow(acc.ID, rec); err != nil {
		return err
	}
	if rec.status == string(server.StatusDone) {
		t := time.Now()
		var res struct {
			Techniques []techniqueResult `json:"techniques"`
		}
		if err := c.get("/v1/jobs/"+acc.ID+"/result", &res); err != nil {
			return err
		}
		rec.result = res.Techniques
		resp, err := c.http.Get(c.base + "/v1/jobs/" + acc.ID + "/report")
		if err != nil {
			return err
		}
		report, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("report: %d %s", resp.StatusCode, report)
		}
		rec.report = string(report)
		rec.fetch = time.Since(t)
	}
	rec.end = time.Now()

	var st struct {
		Error    string `json:"error"`
		Created  string `json:"created"`
		Started  string `json:"started"`
		Finished string `json:"finished"`
	}
	if err := c.get("/v1/jobs/"+acc.ID, &st); err != nil {
		return err
	}
	rec.errMsg = st.Error
	rec.created, _ = time.Parse(time.RFC3339Nano, st.Created)
	rec.started, _ = time.Parse(time.RFC3339Nano, st.Started)
	rec.finished, _ = time.Parse(time.RFC3339Nano, st.Finished)
	return nil
}

// follow reads the job's SSE stream to its done frame.
func (c *client) follow(id string, rec *jobRecord) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("events: %d %s", resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "stage":
			st := stageRecord{at: time.Now()}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			rec.stages = append(rec.stages, st)
		case strings.HasPrefix(line, "data: ") && event == "done":
			var v struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			rec.status = v.Status
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("events: job %s stream closed without a done frame", id)
}

func (c *client) get(path string, into any) error {
	req, err := http.NewRequest("GET", c.base+path, nil)
	if err != nil {
		return err
	}
	return c.call(req, http.StatusOK, into)
}

func (c *client) call(req *http.Request, want int, into any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, into)
}

// smtd is the in-process server on a loopback listener.
type smtd struct {
	srv    *server.Server
	http   *http.Server
	base   string
	served chan struct{}
}

// boot characterizes an environment and starts the smtd serving stack on
// it: 2 flow workers, each job sequential inside.
func boot() (*smtd, error) {
	env, err := selectivemt.NewEnvironment()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(env, server.Options{Workers: serveClients, JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	s := &smtd{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// stop drains the job pool, shuts the HTTP server down and waits for it.
func (s *smtd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	<-s.served
	return err
}

// stats is the part of /v1/stats the per-layer metrics read.
type stats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Assign *struct {
		Commits  uint64  `json:"commits"`
		Reverts  uint64  `json:"reverts"`
		ScoreMS  float64 `json:"score_ms"`
		RetimeMS float64 `json:"retime_ms"`
		UnwindMS float64 `json:"unwind_ms"`
	} `json:"assign"`
}

// makeUpload generates upload k of the run: a gen.Large circuit drawn
// from the seed, mapped to cells and written as Verilog, with a clock at
// the circuit's slack over its placed minimum period (as a benchmark
// circuit gets). The server receives only the text and the clock.
func (b *bench) makeUpload(env *selectivemt.Environment, k int) (upload, error) {
	spec := gen.Large(uploadInstances, b.seed*1_000_003+int64(k))
	d, err := synth.Map(spec.Module, env.Lib, synth.DefaultOptions())
	if err != nil {
		return upload{}, err
	}
	var src strings.Builder
	if err := verilog.Write(&src, d); err != nil {
		return upload{}, err
	}
	if _, err := place.Place(d, env.NewConfig().PlaceOpts); err != nil {
		return upload{}, err
	}
	pmin, err := sta.MinPeriod(d, preRouteConfig(env, 1000))
	if err != nil {
		return upload{}, err
	}
	return upload{module: spec.Module, verilog: src.String(), periodNs: pmin * spec.ClockSlack}, nil
}

// repeatedJobs lists every repeated spec once, in order.
func repeatedJobs() []servedJob {
	var jobs []servedJob
	for i, s := range repeatedSpecs {
		jobs = append(jobs, servedJob{name: fmt.Sprintf("spec%02d", i), spec: s, repeat: i})
	}
	return jobs
}

// roundJobs lists round r of a part in the seeded order: every repeated
// spec once and uploadsPerRound uploads.
func roundJobs(uploads []upload, r int, rng *rand.Rand) []servedJob {
	jobs := repeatedJobs()
	for k := r * uploadsPerRound; k < (r+1)*uploadsPerRound; k++ {
		jobs = append(jobs, servedJob{
			name:   fmt.Sprintf("upload%03d", k),
			spec:   selectivemt.JobSpec{Verilog: uploads[k].verilog, ClockPeriodNs: uploads[k].periodNs, Techniques: uploadTechniques},
			repeat: -1,
		})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// drive runs the jobs on the clients, each client taking the next job
// when its previous one is done, and returns the records in completion
// order.
func drive(clients []*client, jobs []servedJob) []*jobRecord {
	var (
		mu      sync.Mutex
		next    int
		records []*jobRecord
		wg      sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				rec := c.do(j)
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return records
}

// runServeMixed runs one part of serve-mixed: set-up, then
// serveRoundsPerPart rounds of the mix on serveClients closed-loop
// clients of an in-process smtd.
func runServeMixed(b *bench) error {
	// Set-up: boot the server bootReps times (the median counts) and keep
	// the last one, generate the part's uploads, and warm the analysis
	// cache with one pass over the repeated specs.
	var boots []float64
	var s *smtd
	for i := 0; i < bootReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = boot(); err != nil {
			return err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	defer func() {
		if err := s.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stop server: %v\n", err)
		}
	}()
	setupStart := time.Now()
	env, err := selectivemt.NewEnvironment() // for upload generation only
	if err != nil {
		return err
	}
	uploads := make([]upload, serveRoundsPerPart*uploadsPerRound)
	for k := range uploads {
		if uploads[k], err = b.makeUpload(env, b.part*len(uploads)+k); err != nil {
			return err
		}
	}
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = &client{base: s.base, id: fmt.Sprintf("bench-%d", i), http: &http.Client{}}
	}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()
	reference := make([]string, len(repeatedSpecs))
	b.Reports = map[string]string{}
	for _, rec := range drive(clients, repeatedJobs()) {
		if rec.err != nil || rec.status != string(server.StatusDone) {
			return fmt.Errorf("warm-up %s: status %q, %v %s", rec.job.name, rec.status, rec.err, rec.errMsg)
		}
		reference[rec.job.repeat] = rec.report
		b.Reports[rec.job.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(rec.report)))
	}
	b.Setups = append(b.Setups, median(boots)+time.Since(setupStart).Seconds())

	// Measured rounds.
	before, err := serverStats(clients[0])
	if err != nil {
		return err
	}
	sta0 := sta.CompileCacheStats()
	rng := rand.New(rand.NewSource(b.seed + int64(b.part)))
	var jobs []servedJob
	for r := 0; r < serveRoundsPerPart; r++ {
		jobs = append(jobs, roundJobs(uploads, r, rng)...)
	}
	span := b.trace.open(fmt.Sprintf("part %d", b.part), 0)
	log := startRoundLog()
	t0 := time.Now()
	records := drive(clients, jobs)
	measured := time.Since(t0).Seconds()
	log.log(b, measured)
	b.trace.close(span)
	after, err := serverStats(clients[0])
	if err != nil {
		return err
	}
	sta1 := sta.CompileCacheStats()

	b.Rounds = serveRoundsPerPart
	b.Walls = append(b.Walls, measured/serveRoundsPerPart)
	b.Busy = measured
	for _, rec := range records {
		b.Attempted++
		b.checkServed(rec, reference)
		if rec.err == nil && rec.status == string(server.StatusDone) {
			b.Completed++
			b.JobLat = append(b.JobLat, rec.end.Sub(rec.start).Seconds())
			if rec.job.repeat == qualitySpec {
				for _, t := range rec.result {
					if t.Technique == "Improved-SMT" {
						b.Leak, b.Area = t.StandbyLeakMW, t.AreaUm2
					}
				}
			}
		}
	}
	if b.trace != nil {
		b.serveLayers(env, span, records, uploads, before, after, sta0, sta1)
	}
	return nil
}

func serverStats(c *client) (*stats, error) {
	var st stats
	if err := c.get("/v1/stats", &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// checkServed checks one served job: it reached done (a failed job is a
// failed operation), its SSE stage sequence is each technique's pipeline,
// it returned the techniques asked for, a repeated spec's report is
// byte-identical to the warm-up's, and a repeated spec's typical-corner
// timing is clean. Uploads draw their circuits from the seed, so their
// timing is reported by the server but not gated here.
func (b *bench) checkServed(rec *jobRecord, reference []string) {
	op := rec.job.name
	switch {
	case rec.err != nil:
		b.problem("%s: %v", op, rec.err)
		return
	case rec.status != string(server.StatusDone):
		b.fail(op, rec.errMsg)
		return
	}
	want, err := selectivemt.ParseTechniques(rec.job.spec.Techniques)
	if err != nil {
		b.problem("%s: %v", op, err)
		return
	}
	if len(rec.result) != len(want) {
		b.problem("%s: %d technique results, want %d", op, len(rec.result), len(want))
		return
	}
	for _, t := range rec.result {
		stages, ok := selectivemt.PipelineStages(t.Technique)
		if !ok {
			b.problem("%s: unknown technique %q in result", op, t.Technique)
			continue
		}
		var seen []string
		for _, st := range rec.stages {
			if st.Task == t.Technique && st.Stage != "" && st.State == "done" {
				seen = append(seen, st.Stage)
			}
		}
		if !reflect.DeepEqual(seen, stages) {
			b.problem("%s: %s SSE stages %q, want %q", op, t.Technique, seen, stages)
		}
	}
	if rec.job.repeat < 0 {
		if rec.report == "" {
			b.problem("%s: empty report", op)
		}
		return
	}
	if rec.report != reference[rec.job.repeat] {
		b.problem("%s: report differs from the first run of the same spec", op)
	}
	for _, t := range rec.result {
		if msg := timingFailure(t.WNSNs, t.WorstHoldNs); msg != "" {
			b.fail(op, fmt.Sprintf("%s (%s)", msg, t.Technique))
			return
		}
	}
}

// serveLayers derives serve-mixed's per-layer metrics from the job
// records, the server's counters and replays of the upload path.
func (b *bench) serveLayers(env *selectivemt.Environment, part int, records []*jobRecord, uploads []upload,
	before, after *stats, sta0, sta1 sta.CacheStats) {
	for _, rec := range records {
		if rec.err != nil {
			continue
		}
		root := b.trace.add(rec.job.name, part, rec.start, rec.end)
		b.trace.add("submit", root, rec.start, rec.start.Add(rec.submit))
		b.addLayer("server.submit_s", rec.submit.Seconds())
		b.addLayer("server.fetch_s", rec.fetch.Seconds())
		if !rec.started.IsZero() {
			b.trace.add("queue", root, rec.created, rec.started)
			b.addLayer("server.queue_wait_s", rec.started.Sub(rec.created).Seconds())
		}
		if !rec.finished.IsZero() && !rec.started.IsZero() {
			b.trace.add("run", root, rec.started, rec.finished)
			b.addLayer("server.run_s", rec.finished.Sub(rec.started).Seconds())
			b.addLayer("server.overhead_s", (rec.end.Sub(rec.start) - rec.finished.Sub(rec.created)).Seconds())
		}
		var prepDone time.Time
		for _, st := range rec.stages {
			elapsed := time.Duration(st.ElapsedMs * float64(time.Millisecond))
			switch {
			case st.Stage != "" && st.State == "done":
				if layer, ok := stageLayer[st.Stage]; ok {
					b.addLayer(layer, elapsed.Seconds())
				}
				b.trace.add(st.Task+"/"+st.Stage, root, st.at.Add(-elapsed), st.at)
			case st.Task == "prepare" && st.State == "done":
				prepDone = st.at
				b.addLayer("core.prepare_s", elapsed.Seconds())
				b.trace.add("prepare", root, st.at.Add(-elapsed), st.at)
			case st.Stage == "" && st.State == "running" && !prepDone.IsZero():
				b.addLayer("engine.job_wait_s", st.at.Sub(prepDone).Seconds())
			}
		}
		for _, t := range rec.result {
			b.addLayer("vgnd.holders", float64(t.HoldersInserted))
			b.addLayer("vgnd.clusters", float64(t.Clusters))
		}
	}
	b.Tally.STAHits, b.Tally.STAMisses = sta1.Hits-sta0.Hits, sta1.Misses-sta0.Misses
	b.Tally.CompileCacheMB = float64(sta1.Bytes) / (1 << 20)
	b.Tally.CacheHits = after.Cache.Hits - before.Cache.Hits
	b.Tally.CacheMisses = after.Cache.Misses - before.Cache.Misses
	if after.Assign != nil {
		var a0 struct{ commits, reverts uint64 }
		var score0, retime0, unwind0 float64
		if before.Assign != nil {
			a0.commits, a0.reverts = before.Assign.Commits, before.Assign.Reverts
			score0, retime0, unwind0 = before.Assign.ScoreMS, before.Assign.RetimeMS, before.Assign.UnwindMS
		}
		b.Tally.Commits = int(after.Assign.Commits - a0.commits)
		b.Tally.Reverts = int(after.Assign.Reverts - a0.reverts)
		b.addLayer("assign.score_s", (after.Assign.ScoreMS-score0)/1e3)
		b.addLayer("assign.retime_s", (after.Assign.RetimeMS-retime0)/1e3)
		b.addLayer("assign.unwind_s", (after.Assign.UnwindMS-unwind0)/1e3)
	}

	// Replay the upload path's layers on every upload the part served.
	span := b.trace.open("replay", part)
	defer b.trace.close(span)
	cfg := env.NewConfig()
	replay := func(metric string, f func() error) {
		if err := b.timed(metric, span, f); err != nil {
			b.problem("replay %s: %v", metric, err)
		}
	}
	for _, u := range uploads {
		replay("synth.map_s", func() error {
			_, err := synth.Map(u.module, env.Lib, synth.DefaultOptions())
			return err
		})
		var d *netlist.Design
		replay("verilog.parse_s", func() (err error) {
			d, err = verilog.Parse(strings.NewReader(u.verilog), env.Lib)
			return err
		})
		if d == nil {
			return
		}
		replay("place.place_s", func() error {
			_, err := place.Place(d, cfg.PlaceOpts)
			return err
		})
		replay("sta.min_period_s", func() error {
			_, err := sta.MinPeriod(d, preRouteConfig(env, 1000))
			return err
		})
		replay("sta.analyze_s", func() error {
			_, err := sta.Analyze(d, preRouteConfig(env, u.periodNs))
			return err
		})
		replay("sim.activity_s", func() error {
			_, err := sim.EstimateActivity(d, cfg.ActivityCycles, cfg.Seed)
			return err
		})
		replay("power.standby_s", func() error {
			_, err := power.Standby(d, power.StandbyOptions{Inputs: cfg.StandbyInputs})
			return err
		})
	}
}
