package jobs

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestJobMetricsObserved: every executed job must feed the queue-wait
// and execution histograms exactly once, and pipeline waves the wave
// histogram — the contract /metrics renders from.
func TestJobMetricsObserved(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := &Metrics{
		QueueWaitSec: reg.Histogram("wait_seconds", "x", nil),
		ExecSec:      reg.Histogram("exec_seconds", "x", nil),
		WaveSec:      reg.Histogram("wave_seconds", "x", nil),
	}
	m := newManager(t, Config{Workers: 2, Metrics: met})

	const jobs = 5
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(500 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		await(t, m, id)
	}
	if got := met.QueueWaitSec.Count(); got != jobs {
		t.Errorf("queue-wait observations = %d, want %d", got, jobs)
	}
	if got := met.ExecSec.Count(); got != jobs {
		t.Errorf("exec observations = %d, want %d", got, jobs)
	}

	p, err := m.SubmitPipeline(PipelineSpec{Waves: []WaveSpec{
		{Jobs: []PipelineJob{{Spec: Spec{System: "i7-2600K", Inst: testInst(600)}}}},
		{Jobs: []PipelineJob{{Spec: Spec{System: "i7-2600K", Inst: testInst(601)}}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m.AwaitPipeline(ctx, p.ID); err != nil {
		t.Fatal(err)
	}
	if got := met.WaveSec.Count(); got != 2 {
		t.Errorf("wave observations = %d, want 2", got)
	}
}

// TestRequestIDStampedThroughRecords: a request ID on a submission must
// survive into the job snapshot, and a pipeline's ID must propagate to
// its wave jobs' records.
func TestRequestIDStampedThroughRecords(t *testing.T) {
	m := newManager(t, Config{Workers: 1})

	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(500), RequestID: "req-direct"})
	if err != nil {
		t.Fatal(err)
	}
	if got := await(t, m, j.ID).RequestID; got != "req-direct" {
		t.Errorf("job RequestID = %q, want req-direct", got)
	}

	p, err := m.SubmitPipeline(PipelineSpec{
		Name:      "trace-me",
		RequestID: "req-pipe",
		Waves: []WaveSpec{{Jobs: []PipelineJob{
			{Spec: Spec{System: "i7-2600K", Inst: testInst(600)}},
			{Spec: Spec{System: "i7-2600K", Inst: testInst(601), RequestID: "req-own"}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.RequestID != "req-pipe" {
		t.Errorf("pipeline snapshot RequestID = %q, want req-pipe", p.RequestID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.AwaitPipeline(ctx, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	wave := final.Waves[0]
	if len(wave.JobIDs) != 2 {
		t.Fatalf("wave has %d job IDs, want 2", len(wave.JobIDs))
	}
	wantIDs := map[int]string{0: "req-pipe", 1: "req-own"}
	for i, id := range wave.JobIDs {
		job, ok := m.Get(id)
		if !ok {
			t.Fatalf("wave job %s not found", id)
		}
		if job.RequestID != wantIDs[i] {
			t.Errorf("wave job %d RequestID = %q, want %q", i, job.RequestID, wantIDs[i])
		}
	}
}

// TestSlowJobLogsSpanTree: with a zero-distance threshold every job is
// slow, and the logged tree must contain the execution span chain.
func TestSlowJobLogsSpanTree(t *testing.T) {
	var out lockedBuffer
	m := newManager(t, Config{
		Workers: 1,
		SlowJob: time.Nanosecond,
		Logger:  slog.New(slog.NewTextHandler(&out, nil)),
	})
	j, err := m.Submit(Spec{System: "i7-2600K", Inst: testInst(500), RequestID: "req-slow"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, j.ID)

	// The span tree is logged just after the job is published as
	// finished, so wait for that line rather than racing it.
	var joined string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		joined = out.String()
		if strings.Contains(joined, `msg="job slow"`) || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{`msg="job slow"`, "job_id=" + j.ID, "job.execute", "plan.fetch", "engine.measure", "request_id=req-slow"} {
		if !strings.Contains(joined, want) {
			t.Errorf("slow-job log missing %q:\n%s", want, joined)
		}
	}
}

// lockedBuffer is a log sink a test reads while workers write to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
