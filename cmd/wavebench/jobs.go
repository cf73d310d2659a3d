package main

// jobs-feedback: open-loop jobs (plain, refine and two-wave pipelines)
// with a /v1/tune read stream alongside, against a daemon that logs
// refined observations and retrains from them; then a closed-loop window
// of clients that each submit a job and wait for it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// jobsMix returns jobs-feedback's open-loop mix: the read stream plus
// the job stream's plain, refine and pipeline shares.
func jobsMix() opMix {
	r := readRate / (readRate + jobRate)
	j := 1 - r
	return opMix{
		opTune:     r,
		opJob:      j * (1 - refineShare - pipelineShare),
		opRefine:   j * refineShare,
		opPipeline: j * pipelineShare,
	}
}

// jobsWarmUp is how long the untimed warm-up runs the window's mix: long
// enough to fill the daemon's 1024 retained job records, so the window
// measures a daemon in its steady state.
const jobsWarmUp = 4 * time.Second

// closedJobMix is the job stream's mix without reads.
var closedJobMix = opMix{opJob: 1 - refineShare - pipelineShare, opRefine: refineShare, opPipeline: pipelineShare}

// jobBook tracks the open loop's submitted jobs and pipelines, which of
// them the window measures, and the succeeded records the poller has
// seen.
type jobBook struct {
	mu        sync.Mutex
	refine    map[string]bool // submitted job ID -> refine
	pipelines map[string]bool
	measured  map[string]bool // job and pipeline IDs submitted in the window
	jobs      map[string]jobInfo
	pipes     map[string]pipelineInfo
}

func newJobBook() *jobBook {
	return &jobBook{refine: map[string]bool{}, pipelines: map[string]bool{}, measured: map[string]bool{},
		jobs: map[string]jobInfo{}, pipes: map[string]pipelineInfo{}}
}

func (b *jobBook) submitted(kind opKind, id string, measured bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if kind == opPipeline {
		b.pipelines[id] = true
	} else {
		b.refine[id] = kind == opRefine
	}
	b.measured[id] = measured
}

// outstanding counts submitted jobs, pipelines and pipeline member jobs
// whose succeeded record has not been seen.
func (b *jobBook) outstanding() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for id := range b.refine {
		if _, ok := b.jobs[id]; !ok {
			n++
		}
	}
	for id := range b.pipelines {
		p, ok := b.pipes[id]
		if !ok {
			n++
			continue
		}
		for _, w := range p.Waves {
			for _, jid := range w.JobIDs {
				if _, ok := b.jobs[jid]; !ok {
					n++
				}
			}
		}
	}
	return n
}

// poll lists the daemon's succeeded job and pipeline records once.
func (b *jobBook) poll(ctx context.Context, c *conn, base string) error {
	body, err := c.get(ctx, base+"/v1/jobs?state=succeeded")
	if err != nil {
		return err
	}
	var jl struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(body, &jl); err != nil {
		return err
	}
	if body, err = c.get(ctx, base+"/v1/pipelines?state=succeeded"); err != nil {
		return err
	}
	var pl struct {
		Pipelines []pipelineInfo `json:"pipelines"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, j := range jl.Jobs {
		b.jobs[j.ID] = j
	}
	for _, p := range pl.Pipelines {
		b.pipes[p.ID] = p
	}
	return nil
}

// pollEvery polls every period until stop closes, returning the first
// error.
func (b *jobBook) pollEvery(ctx context.Context, client *http.Client, base string, period time.Duration, stop <-chan struct{}) error {
	c := &conn{client: client}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if err := b.poll(ctx, c, base); err != nil {
				return err
			}
		}
	}
}

// logRows counts the data rows of the observation logs in dir.
func logRows(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		n += bytes.Count(b, []byte("\n")) - 1 // minus the header
	}
	return n, nil
}

// checkPipeline requires a pipeline to have succeeded with both waves
// resolved.
func checkPipeline(p pipelineInfo) error {
	if p.State != "succeeded" || len(p.Waves) != 2 {
		return fmt.Errorf("pipeline %s %s with %d waves: %s", p.ID, p.State, len(p.Waves), p.Error)
	}
	for i, w := range p.Waves {
		if w.State != "resolved" {
			return fmt.Errorf("pipeline %s wave %d is %s", p.ID, i, w.State)
		}
	}
	return nil
}

// awaitRecord polls one job or pipeline record until it is finished and
// returns its body.
func awaitRecord(ctx context.Context, c *conn, url string) ([]byte, error) {
	giveUp := time.Now().Add(30 * time.Second)
	for {
		b, err := c.get(ctx, url)
		if err != nil {
			return nil, err
		}
		var r struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		if finishedState(r.State) {
			return b, nil
		}
		if time.Now().After(giveUp) {
			return nil, fmt.Errorf("%s not finished after 30s", url)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// runJobs runs jobs-feedback.
func runJobs(ctx context.Context, e *env, res *result) error {
	hot, err := hotKeys()
	if err != nil {
		return err
	}
	openWin := time.Duration(openShare * float64(e.window))
	closedWin := e.window - openWin
	warmOps, err := schedule(e.seed, 20, (readRate+jobRate)*e.rateScale, jobsWarmUp, 0, jobsMix(), newUniformKeys(hot, e.seed, 20))
	if err != nil {
		return err
	}
	winOps, err := schedule(e.seed, 21, (readRate+jobRate)*e.rateScale, openWin, 0, jobsMix(), newUniformKeys(hot, e.seed, 21))
	if err != nil {
		return err
	}
	closed, err := schedule(e.seed, 22, 0, 0, int(5000*closedWin.Seconds())+500, closedJobMix, newUniformKeys(hot, e.seed, 22))
	if err != nil {
		return err
	}
	eval, err := evalKeys(e.effKeys, func(i int) (*tuneKey, error) { return hot[i], nil }, len(hot))
	if err != nil {
		return err
	}

	logDir, err := os.MkdirTemp(e.workdir, "trainlog-")
	if err != nil {
		return err
	}
	args := []string{"-train-log", logDir, "-retrain-min-obs", "16", "-retrain-interval", "2s"}
	d, setup, err := bootDaemons(ctx, e, res.Workload, args, setupKeys(hot), res)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	res.set("setup_s", setup, "s", fmt.Sprintf("median of %d boots", e.setupReps))
	base := d.base

	client := newClient()
	defer client.CloseIdleConnections()
	replies := newReplyLog()
	book := newJobBook()
	send := func(ops []op, measured bool) sendFunc {
		return func(ctx context.Context, c *conn, i int) error {
			o := ops[i]
			path, want := opPath(o.kind)
			b, err := c.post(ctx, base+path, o.body, want)
			if err != nil {
				return err
			}
			if o.kind == opTune {
				replies.addTune(o.keys[0], b)
				return nil
			}
			id, err := recordID(b)
			if err == nil {
				book.submitted(o.kind, id, measured)
			}
			return err
		}
	}

	stop := make(chan struct{})
	var pollErr error
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		pollErr = book.pollEvery(ctx, client, base, time.Second, stop)
	}()
	r := openLoop(ctx, client, dueTimes(warmOps), send(warmOps, false))
	res.ops(len(r.OK), r.failed())
	rss := sampleRSS(d.cmd.Process.Pid)
	defer rss.halt()
	open := openLoop(ctx, client, dueTimes(winOps), send(winOps, true))
	close(stop)
	pollWG.Wait()
	res.ops(len(open.OK), open.failed())
	if err := rss.stop(res, "waved"); err != nil {
		return err
	}
	if pollErr != nil {
		return fmt.Errorf("polling job records: %w", pollErr)
	}
	reads := summarize(open.micros(func(i int) bool { return winOps[i].kind == opTune }))
	res.diag("read_p50_us", reads.P50, "us", "lower", fmt.Sprintf("/v1/tune read stream at %.0f/s, n=%d", readRate*e.rateScale, reads.N))
	res.diag("read_tail_us", reads.Tail, "us", "lower", reads.tailNote())
	lag := summarize(open.lagMicros())
	res.diag("gen.lag_tail_us", lag.Tail, "us", "lower", lag.tailNote())

	// Drain: every open-window job and pipeline must succeed and be seen
	// before the closed loop's records push them out of the daemon's
	// bounded record retention.
	c := &conn{client: client}
	for drainBy := time.Now().Add(30 * time.Second); ; {
		if err := book.poll(ctx, c, base); err != nil {
			return err
		}
		if book.outstanding() == 0 {
			break
		}
		if time.Now().After(drainBy) {
			res.problem("%d jobs or pipelines never seen succeeded", book.outstanding())
			res.ops(0, book.outstanding())
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Closed loop: each client submits a job (or pipeline) and polls its
	// record until it finishes.
	var mu sync.Mutex
	closedRefines := 0
	cl := closedLoop(ctx, client, len(closed), closedWin, func(ctx context.Context, c *conn, i int) error {
		o := closed[i%len(closed)]
		path, want := opPath(o.kind)
		b, err := c.post(ctx, base+path, o.body, want)
		if err != nil {
			return err
		}
		id, err := recordID(b)
		if err != nil {
			return err
		}
		if b, err = awaitRecord(ctx, c, base+path+"/"+id); err != nil {
			return err
		}
		if o.kind == opPipeline {
			var p pipelineInfo
			if err := json.Unmarshal(b, &p); err != nil {
				return err
			}
			return checkPipeline(p)
		}
		var j jobInfo
		if err := json.Unmarshal(b, &j); err != nil {
			return err
		}
		if j.State != "succeeded" || j.Result == nil {
			return fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
		}
		if j.Refine && !j.Result.Serial {
			mu.Lock()
			closedRefines++
			mu.Unlock()
		}
		return nil
	})
	res.ops(len(cl.OK), cl.failed())
	res.diag("throughput_per_s", cl.throughput(), "1/s", "higher", fmt.Sprintf("closed loop submit-and-await, %d conns, median of %d slices", maxConns, throughputSlices))

	// Latency: created to finished, over every open-window job including
	// pipeline members.
	var done []jobInfo
	expectRows := closedRefines
	record := func(id string) {
		if j, ok := book.jobs[id]; ok && j.FinishedAt != nil {
			done = append(done, j)
		}
	}
	for id, refine := range book.refine {
		if book.measured[id] {
			record(id)
		}
		if j, ok := book.jobs[id]; ok && refine && j.Result != nil && !j.Result.Serial {
			expectRows++
		}
	}
	for id := range book.pipelines {
		p, ok := book.pipes[id]
		if !ok {
			continue
		}
		if err := checkPipeline(p); err != nil {
			res.problem("%v", err)
			res.ops(0, 1)
		}
		if !book.measured[id] {
			continue
		}
		for _, w := range p.Waves {
			for _, jid := range w.JobIDs {
				record(jid)
			}
		}
	}
	slices.SortFunc(done, func(a, b jobInfo) int { return a.CreatedAt.Compare(b.CreatedAt) })
	lat := make([]float64, len(done))
	for i, j := range done {
		lat[i] = us(j.FinishedAt.Sub(j.CreatedAt))
	}
	ls := summarizeSliced(lat)
	res.diag("latency_p50_us", ls.P50, "us", "lower", fmt.Sprintf("job created to finished, open loop at %.0f jobs/s, median over %d slices, n=%d", jobRate*e.rateScale, ls.Slices, ls.N))
	res.diag("latency_tail_us", ls.Tail, "us", "lower", ls.tailNote())

	st, err := fetchStats(ctx, c, base)
	if err != nil {
		return err
	}
	if st.Jobs.Failed != 0 || st.Jobs.Canceled != 0 || st.Jobs.Rejected != 0 {
		res.problem("daemon counted %d failed, %d canceled and %d rejected jobs", st.Jobs.Failed, st.Jobs.Canceled, st.Jobs.Rejected)
	}
	eff, err := planEfficiency(ctx, c, base, eval, replies)
	if err != nil {
		return err
	}
	res.ops(len(eval), 0)
	res.set("efficiency", eff, "ratio", fmt.Sprintf("plan efficiency over %d fixed keys after retraining", len(eval)))
	err = d.stop()
	d = nil
	if err != nil {
		res.problem("%v", err)
	}
	rows, err := logRows(logDir)
	if err != nil {
		return err
	}
	if rows != expectRows || st.Jobs.TrainingRows != uint64(expectRows) {
		res.problem("training log holds %d rows (daemon counted %d), want %d non-serial refine jobs",
			rows, st.Jobs.TrainingRows, expectRows)
	}
	res.failures(replies.check())
	return nil
}
