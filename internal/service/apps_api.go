package service

// The /v1/apps surface: workload discovery. Clients list the registered
// application catalog — names, granularity on the paper's tsize/dsize
// scales, parameter schemas and shape constraints — so a tuning or job
// request can be built without out-of-band knowledge. The listing is
// generated from the apps registry, the same source of truth the tune
// and job validators use, so it can never drift from what the daemon
// actually accepts.

import (
	"net/http"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// AppParamInfo is the wire form of one application parameter spec.
type AppParamInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Default is absent for required parameters.
	Default  *float64 `json:"default,omitempty"`
	Required bool     `json:"required,omitempty"`
	Integer  bool     `json:"integer,omitempty"`
	// Min and Max expose the accepted range when the spec bounds it, so
	// clients can see the constraint their values are validated against.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// AppInfo describes one catalog application in GET /v1/apps.
type AppInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Recurrence  string `json:"recurrence,omitempty"`
	Ref         string `json:"ref,omitempty"`
	// TSize and DSize are the granularity at default parameters; absent
	// when the app has no default granularity (the synthetic trainer,
	// whose tsize/dsize are required parameters).
	TSize      *float64       `json:"tsize,omitempty"`
	DSize      *int           `json:"dsize,omitempty"`
	SquareOnly bool           `json:"square_only,omitempty"`
	Params     []AppParamInfo `json:"params,omitempty"`
}

// appInfo converts a registry entry into its wire form.
func appInfo(a apps.App) AppInfo {
	info := AppInfo{
		Name: a.Name, Description: a.Description,
		Recurrence: a.Recurrence, Ref: a.Ref,
		SquareOnly: a.SquareOnly,
	}
	if tsize, dsize, ok := a.DefaultGranularity(); ok {
		t, d := tsize, dsize
		info.TSize, info.DSize = &t, &d
	}
	for _, p := range a.Params {
		pi := AppParamInfo{
			Name: p.Name, Description: p.Description,
			Required: p.Required, Integer: p.Integer,
		}
		if !p.Required {
			d := p.Default
			pi.Default = &d
		}
		if p.Min < p.Max {
			lo, hi := p.Min, p.Max
			pi.Min, pi.Max = &lo, &hi
		}
		info.Params = append(info.Params, pi)
	}
	return info
}

// handleApps serves GET /v1/apps: the application catalog, sorted by
// name.
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	all := apps.All()
	infos := make([]AppInfo, 0, len(all))
	for _, a := range all {
		infos = append(infos, appInfo(a))
	}
	if span := telemetry.SpanFrom(r.Context()); span != nil {
		span.Annotate("apps", len(infos))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"apps": infos, "count": len(infos)})
}
