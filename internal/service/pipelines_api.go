package service

// The /v1/pipelines surface: wave-DAG job pipelines over HTTP. A client
// POSTs a pipeline — ordered waves of job requests, each wave with a
// failure policy — receives 202 with the queued record, and polls
// GET /v1/pipelines/{id} while the daemon runs each wave through the
// job worker pool, admitting wave N+1 only after wave N resolves.
// DELETE /v1/pipelines/{id} cancels (the running wave cooperatively,
// unstarted waves by skipping them); DELETE /v1/pipelines prunes
// finished records; GET /v1/pipelines lists. Admission-control
// rejections answer 429 with Retry-After.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// PipelineJobRequest is one job of a wave: the same body as
// POST /v1/jobs plus a pipeline-unique name. A job may omit system when
// the pipeline declares a default.
type PipelineJobRequest struct {
	JobRequest
	// Name identifies the job within the pipeline (defaults to
	// "w<wave>.j<index>"); duplicates are rejected.
	Name string `json:"name,omitempty"`
}

// PipelineWaveRequest is one wave of POST /v1/pipelines.
type PipelineWaveRequest struct {
	// Name identifies the wave (defaults to "wave-<index>").
	Name string `json:"name,omitempty"`
	// After names waves this one depends on; each must be declared
	// earlier (waves execute in declaration order).
	After []string `json:"after,omitempty"`
	// Policy is the wave's failure policy: "abort" (default),
	// "continue" or "retry".
	Policy string `json:"policy,omitempty"`
	// RetryBudget caps failed-job resubmissions for the retry policy.
	RetryBudget int `json:"retry_budget,omitempty"`
	// Jobs are the wave's parallel submissions.
	Jobs []PipelineJobRequest `json:"jobs"`
}

// PipelineRequest is the body of POST /v1/pipelines.
type PipelineRequest struct {
	// Name labels the pipeline (informational).
	Name string `json:"name,omitempty"`
	// System, when set, is the default system for jobs that omit one.
	System string `json:"system,omitempty"`
	// Waves execute sequentially in declaration order.
	Waves []PipelineWaveRequest `json:"waves"`
}

// PipelineWaveInfo is the wire form of one wave record.
type PipelineWaveInfo struct {
	Name string `json:"name"`
	// State is pending, running, resolved, failed, canceled or skipped.
	State       string `json:"state"`
	Policy      string `json:"policy"`
	RetryBudget int    `json:"retry_budget,omitempty"`
	RetriesUsed int    `json:"retries_used,omitempty"`
	// Failed counts non-succeeded attempts at resolution (only the
	// continue policy resolves with failures).
	Failed int `json:"failed,omitempty"`
	// JobIDs lists every attempt in submission order; each is an
	// ordinary job record under /v1/jobs/{id}.
	JobIDs []string `json:"job_ids"`
}

// PipelineInfo is the wire form of one pipeline record.
type PipelineInfo struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// State is the lifecycle state (queued, wave-running, wave-barrier,
	// succeeded, failed, canceled); Wave the index of the current (or
	// last admitted) wave.
	State string `json:"state"`
	Wave  int    `json:"wave"`
	// CancelRequested is set once DELETE was accepted for a pipeline
	// that has not yet observed the cancellation.
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Error           string `json:"error,omitempty"`
	// RequestID is the X-Request-ID of the submission that created the
	// pipeline; its wave jobs inherit it unless they carry their own.
	RequestID string `json:"request_id,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	Waves []PipelineWaveInfo `json:"waves"`
}

// pipelineInfo converts a jobs.Pipeline snapshot into its wire form.
func pipelineInfo(p jobs.Pipeline) PipelineInfo {
	info := PipelineInfo{
		ID: p.ID, Name: p.Name, State: p.State.String(), Wave: p.Wave,
		CancelRequested: p.CancelRequested, Error: p.Err,
		RequestID: p.RequestID,
		CreatedAt: p.Created,
		Waves:     make([]PipelineWaveInfo, len(p.Waves)),
	}
	if !p.Started.IsZero() {
		t := p.Started
		info.StartedAt = &t
	}
	if !p.Finished.IsZero() {
		t := p.Finished
		info.FinishedAt = &t
	}
	for i, w := range p.Waves {
		info.Waves[i] = PipelineWaveInfo{
			Name: w.Name, State: w.State.String(), Policy: w.Policy.String(),
			RetryBudget: w.RetryBudget, RetriesUsed: w.RetriesUsed,
			Failed: w.Failed, JobIDs: w.JobIDs,
		}
	}
	return info
}

// pipelineSpecFrom validates the request shape and builds the manager
// spec: per-job instances resolve exactly like /v1/jobs submissions
// (named apps, params, legacy spellings), with the pipeline-level
// system filling jobs that omit one.
func (s *Server) pipelineSpecFrom(req PipelineRequest) (jobs.PipelineSpec, error) {
	spec := jobs.PipelineSpec{Name: req.Name, Waves: make([]jobs.WaveSpec, len(req.Waves))}
	for wi, w := range req.Waves {
		policy, err := jobs.ParseFailurePolicy(w.Policy)
		if err != nil {
			return spec, fmt.Errorf("wave %d: %w", wi, err)
		}
		wave := jobs.WaveSpec{
			Name: w.Name, After: w.After,
			Policy: policy, RetryBudget: w.RetryBudget,
			Jobs: make([]jobs.PipelineJob, len(w.Jobs)),
		}
		for ji, j := range w.Jobs {
			if j.System == "" {
				j.System = req.System
			}
			if j.System == "" {
				return spec, fmt.Errorf("wave %d job %d: system is required (per job or pipeline-level)", wi, ji)
			}
			inst, appParams, err := j.instanceFrom()
			if err != nil {
				return spec, fmt.Errorf("wave %d job %d: invalid instance: %v", wi, ji, err)
			}
			pri, err := jobs.ParsePriority(j.Priority)
			if err != nil {
				return spec, fmt.Errorf("wave %d job %d: %w", wi, ji, err)
			}
			wave.Jobs[ji] = jobs.PipelineJob{
				Name: j.Name,
				Spec: jobs.Spec{
					System: j.System, Inst: inst, App: j.App, AppParams: appParams,
					Priority: pri, Refine: j.Refine,
				},
			}
		}
		spec.Waves[wi] = wave
	}
	return spec, nil
}

// handlePipelinePrune serves DELETE /v1/pipelines: prune finished
// pipeline records.
func (s *Server) handlePipelinePrune(w http.ResponseWriter, r *http.Request) {
	n := s.jobs.PrunePipelines()
	s.cfg.Logger.Info("pruned finished pipelines", "pruned", n)
	s.writeJSON(w, http.StatusOK, map[string]any{"pruned": n})
}

// handlePipelineSubmit serves POST /v1/pipelines.
func (s *Server) handlePipelineSubmit(w http.ResponseWriter, r *http.Request) {
	var req PipelineRequest
	if !s.decodeBody(w, r, 1<<20, &req) {
		return
	}
	if req.System != "" {
		if _, ok := s.systems[req.System]; !ok {
			s.writeError(w, http.StatusNotFound, "unknown system %q", req.System)
			return
		}
	}
	spec, err := s.pipelineSpecFrom(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The manager stamps the pipeline's request ID onto every wave job
	// that does not carry its own, so each spawned job record traces
	// back to this submission.
	spec.RequestID = telemetry.RequestIDFrom(r.Context())

	p, err := s.jobs.SubmitPipeline(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		retry := int(s.jobs.RetryAfter() / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.writeError(w, http.StatusTooManyRequests,
			"too many active pipelines; retry in ~%ds", retry)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		// Validation rejected the spec before anything entered the
		// queue.
		s.writeError(w, http.StatusBadRequest, "invalid pipeline: %v", err)
		return
	}
	w.Header().Set("Location", "/v1/pipelines/"+p.ID)
	s.writeJSON(w, http.StatusAccepted, pipelineInfo(p))
}

// handlePipelineList serves GET /v1/pipelines.
func (s *Server) handlePipelineList(w http.ResponseWriter, r *http.Request) {
	var f jobs.PipelineFilter
	if v := r.URL.Query().Get("state"); v != "" {
		st, err := jobs.ParsePipelineState(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		f.State = &st
	}
	writeList(w, "pipelines", s.jobs.ListPipelines(f), pipelineInfo)
}

// handlePipelineGet serves GET /v1/pipelines/{id}: poll one pipeline.
func (s *Server) handlePipelineGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, ok := s.jobs.GetPipeline(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no pipeline %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, pipelineInfo(p))
}

// handlePipelineCancel serves DELETE /v1/pipelines/{id}: cancel the
// running wave cooperatively and skip the later waves.
func (s *Server) handlePipelineCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, err := s.jobs.CancelPipeline(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "no pipeline %q", id)
	case errors.Is(err, jobs.ErrFinished):
		s.writeError(w, http.StatusConflict,
			"pipeline %s already finished (%s)", id, p.State)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "canceling: %v", err)
	default:
		s.cfg.Logger.Info("pipeline cancel accepted", "pipeline_id", id, "state", p.State.String())
		s.writeJSON(w, http.StatusOK, pipelineInfo(p))
	}
}
