package main

// The daemon's HTTP wire format as the benchmark speaks it: request
// bodies for every op kind, and the parts of the replies the benchmark
// reads. Only waved's documented JSON is used, so a refactor behind the
// API leaves this file alone.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/wavefront"
)

// jobRequest is the wire form of POST /v1/jobs.
type jobRequest struct {
	tuneRequest
	Refine bool `json:"refine,omitempty"`
}

// encodeOp encodes the request body of one op.
func encodeOp(o op) ([]byte, error) {
	switch o.kind {
	case opBatch:
		items := make([]tuneRequest, len(o.keys))
		for i, k := range o.keys {
			items[i] = k.req
		}
		return json.Marshal(struct {
			Items []tuneRequest `json:"items"`
		}{items})
	case opJob, opRefine:
		return json.Marshal(jobRequest{tuneRequest: o.keys[0].req, Refine: o.kind == opRefine})
	case opPipeline:
		// Two waves of two plain jobs; the second runs after the first.
		type wave struct {
			Name  string       `json:"name"`
			After []string     `json:"after,omitempty"`
			Jobs  []jobRequest `json:"jobs"`
		}
		k := o.keys
		return json.Marshal(struct {
			Waves []wave `json:"waves"`
		}{[]wave{
			{Name: "w0", Jobs: []jobRequest{{tuneRequest: k[0].req}, {tuneRequest: k[1].req}}},
			{Name: "w1", After: []string{"w0"}, Jobs: []jobRequest{{tuneRequest: k[2].req}, {tuneRequest: k[3].req}}},
		}})
	}
	return o.keys[0].body, nil
}

// opPath is the route an op is posted to and the status it must get.
func opPath(k opKind) (string, int) {
	switch k {
	case opBatch:
		return "/v1/tune/batch", 200
	case opJob, opRefine:
		return "/v1/jobs", 202
	case opPipeline:
		return "/v1/pipelines", 202
	}
	return "/v1/tune", 200
}

// tuneResp is the part of a /v1/tune reply (or batch item) the checks
// read.
type tuneResp struct {
	System   string `json:"system"`
	Instance struct {
		Rows  int     `json:"rows"`
		Cols  int     `json:"cols"`
		TSize float64 `json:"tsize"`
		DSize int     `json:"dsize"`
	} `json:"instance"`
	Serial bool `json:"serial"`
	Params struct {
		CPUTile int `json:"cpu_tile"`
		Band    int `json:"band"`
		GPUTile int `json:"gpu_tile"`
		Halo    int `json:"halo"`
	} `json:"params"`
	RTimeSec float64 `json:"rtime_sec"`
	Error    string  `json:"error"`
}

func (r tuneResp) params() wavefront.Params {
	return wavefront.Params{CPUTile: r.Params.CPUTile, Band: r.Params.Band, GPUTile: r.Params.GPUTile, Halo: r.Params.Halo}
}

type batchResp struct {
	Count   int        `json:"count"`
	Errors  int        `json:"errors"`
	Results []tuneResp `json:"results"`
}

// jobInfo is the part of a job record the benchmark reads.
type jobInfo struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Refine     bool       `json:"refine"`
	Error      string     `json:"error"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at"`
	Result     *struct {
		Serial bool `json:"serial"`
	} `json:"result"`
}

// pipelineInfo is the part of a pipeline record the benchmark reads.
type pipelineInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Waves []struct {
		State  string   `json:"state"`
		JobIDs []string `json:"job_ids"`
	} `json:"waves"`
}

// finishedState reports whether a job or pipeline state is terminal.
func finishedState(s string) bool {
	return s == "succeeded" || s == "failed" || s == "canceled"
}

// statsResponse is the part of GET /v1/stats the benchmark reads.
type statsResponse struct {
	Cache struct {
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Jobs struct {
		Rejected     uint64 `json:"rejected"`
		Failed       uint64 `json:"failed"`
		Canceled     uint64 `json:"canceled"`
		TrainingRows uint64 `json:"training_rows"`
	} `json:"jobs"`
}

// recordID extracts the id of a 202 job or pipeline record.
func recordID(body []byte) (string, error) {
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
		return "", fmt.Errorf("no record id in %.200s", strings.TrimSpace(string(body)))
	}
	return r.ID, nil
}
