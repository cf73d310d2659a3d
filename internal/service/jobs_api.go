package service

// The /v1/jobs surface: the HTTP face of internal/jobs. A client POSTs
// a job (the same instance description as /v1/tune plus priority and
// refine options), receives 202 with the queued record, and polls
// GET /v1/jobs/{id} until the job finishes. DELETE cancels; GET /v1/jobs
// lists. Admission-control rejections answer 429 with Retry-After.

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// JobRequest is the body of POST /v1/jobs: the tune request describing
// the instance, plus job options.
type JobRequest struct {
	TuneRequest
	// Priority is the admission class: "low", "normal" (default) or
	// "high".
	Priority string `json:"priority,omitempty"`
	// Refine opts into online refinement around the cached prediction;
	// the measured outcome feeds the training log.
	Refine bool `json:"refine,omitempty"`
}

// JobInfo is the wire form of one job record.
type JobInfo struct {
	ID       string       `json:"id"`
	State    string       `json:"state"`
	System   string       `json:"system"`
	Instance TuneInstance `json:"instance"`
	App      string       `json:"app,omitempty"`
	// AppParams echoes the application parameters the submission
	// carried (e.g. nash rounds or affine gap penalties).
	AppParams map[string]float64 `json:"app_params,omitempty"`
	Priority  string             `json:"priority"`
	Refine    bool               `json:"refine"`
	// CancelRequested is set once DELETE was accepted for a running job
	// that has not yet observed the cancellation.
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Error           string `json:"error,omitempty"`
	// RequestID is the X-Request-ID of the submission that created the
	// job, tying the record back to the request log and traces.
	RequestID string `json:"request_id,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	Result *JobResult `json:"result,omitempty"`
}

// JobResult reports what a succeeded job executed and measured.
type JobResult struct {
	Serial bool       `json:"serial"`
	Params TuneParams `json:"params"`
	// Cache reports how the plan fetch was served (hit/miss/coalesced).
	Cache string `json:"cache"`
	// PredictedSec is the cached plan's modeled runtime; MeasuredSec the
	// measured execution of the final configuration; SerialSec the
	// sequential baseline; Speedup the serial/measured ratio.
	PredictedSec float64 `json:"predicted_sec"`
	MeasuredSec  float64 `json:"measured_sec"`
	SerialSec    float64 `json:"serial_sec"`
	Speedup      float64 `json:"speedup,omitempty"`
	// Steps is the number of wavefront steps of the executed schedule
	// (0 = unknown); clients gauging progress or throughput must use it
	// rather than deriving rows+cols-1 themselves, which misstates
	// irregular executions.
	Steps int `json:"steps,omitempty"`
	// Refinement reports the online phase for refine jobs.
	Refinement *JobRefinement `json:"refinement,omitempty"`
}

// JobRefinement is the wire form of core.RefineStats.
type JobRefinement struct {
	Probes      int     `json:"probes"`
	Moves       int     `json:"moves"`
	StartSec    float64 `json:"start_sec"`
	FinalSec    float64 `json:"final_sec"`
	Improvement float64 `json:"improvement"`
}

// jobInfo converts a jobs.Job snapshot into its wire form.
func jobInfo(j jobs.Job) JobInfo {
	rows, cols := j.Inst.Shape()
	info := JobInfo{
		ID: j.ID, State: j.State.String(), System: j.System,
		Instance: TuneInstance{Rows: rows, Cols: cols, TSize: j.Inst.TSize, DSize: j.Inst.DSize},
		App:      j.App, AppParams: j.AppParams,
		Priority: j.Priority.String(), Refine: j.Spec.Refine,
		CancelRequested: j.CancelRequested, Error: j.Err,
		RequestID: j.RequestID,
		CreatedAt: j.Created,
	}
	if !j.Started.IsZero() {
		t := j.Started
		info.StartedAt = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		info.FinishedAt = &t
	}
	if r := j.Result; r != nil {
		jr := &JobResult{
			Serial: r.Serial,
			Params: TuneParams{
				CPUTile: r.Par.CPUTile, Band: r.Par.Band, GPUCount: r.Par.GPUCount(),
				GPUTile: r.Par.GPUTile, Halo: r.Par.Halo,
			},
			Cache:        r.Cache,
			PredictedSec: r.PredictedNs / 1e9,
			MeasuredSec:  r.MeasuredNs / 1e9,
			SerialSec:    r.SerialNs / 1e9,
			Steps:        r.Steps,
		}
		if r.MeasuredNs > 0 {
			jr.Speedup = r.SerialNs / r.MeasuredNs
		}
		if st := r.Refine; st != nil {
			jr.Refinement = &JobRefinement{
				Probes: st.Probes, Moves: st.Moves,
				StartSec: st.StartNs / 1e9, FinalSec: st.FinalNs / 1e9,
				Improvement: st.Improvement(),
			}
		}
		info.Result = jr
	}
	return info
}

// handleJobSubmit serves POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, 1<<16, &req) {
		return
	}
	if req.System == "" {
		s.writeError(w, http.StatusBadRequest, "system is required")
		return
	}
	if _, ok := s.systems[req.System]; !ok {
		s.writeError(w, http.StatusNotFound, "unknown system %q", req.System)
		return
	}
	// The record echoes the fully resolved parameter values — supplied
	// params, legacy top-level spellings and schema defaults — so
	// auditing a job never shows fewer parameters than the derivation
	// used.
	inst, appParams, err := req.instanceFrom()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid instance: %v", err)
		return
	}
	pri, err := jobs.ParsePriority(req.Priority)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j, err := s.jobs.Submit(jobs.Spec{
		System: req.System, Inst: inst, App: req.App, AppParams: appParams,
		Priority: pri, Refine: req.Refine,
		RequestID: telemetry.RequestIDFrom(r.Context()),
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// The hint is derived from observed job service times and the
		// current backlog (clamped to [1s, 60s]), not a constant: a queue
		// of minute-long refine jobs and a queue of millisecond lookups
		// deserve very different backoff advice.
		retry := int(s.jobs.RetryAfter() / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.writeError(w, http.StatusTooManyRequests,
			"job queue full; retry in ~%ds", retry)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "submitting job: %v", err)
		return
	}
	// The manager already logs the admission with full detail.
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	s.writeJSON(w, http.StatusAccepted, jobInfo(j))
}

// handleJobList serves GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var f jobs.Filter
	if v := r.URL.Query().Get("state"); v != "" {
		st, err := jobs.ParseState(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		f.State = &st
	}
	if v := r.URL.Query().Get("system"); v != "" {
		if _, ok := s.systems[v]; !ok {
			s.writeError(w, http.StatusNotFound, "unknown system %q", v)
			return
		}
		f.System = v
	}
	writeList(w, "jobs", s.jobs.List(f), jobInfo)
}

// handleJobGet serves GET /v1/jobs/{id}: poll one job.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, jobInfo(j))
}

// handleJobCancel serves DELETE /v1/jobs/{id}: cancel a queued or
// running job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "no job %q", id)
	case errors.Is(err, jobs.ErrFinished):
		s.writeError(w, http.StatusConflict,
			"job %s already finished (%s)", id, j.State)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "canceling: %v", err)
	default:
		s.cfg.Logger.Info("job cancel accepted", "job_id", id, "state", j.State.String())
		s.writeJSON(w, http.StatusOK, jobInfo(j))
	}
}
