package service

// The daemon's one route table. Each entry is a Go 1.22 ServeMux
// pattern, the route label the HTTP metric families and /v1/stats count
// it under, and its handler; routeMux derives everything else from it:
// the per-route request counting, the JSON 405 with its Allow header,
// and the JSON 404 for unknown paths. Handlers neither check their
// method nor count themselves.

import (
	"net/http"
	"slices"
	"strings"
)

// route is one entry of the route table. A pattern without a method
// answers every method.
type route struct {
	pattern string
	label   string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}

// routes is the route table. "GET" patterns also answer HEAD, and the
// "/" entry catches every path no other pattern matches.
var routes = []route{
	{"POST /v1/tune", "tune", (*Server).handleTune},
	{"POST /v1/tune/batch", "batch", (*Server).handleTuneBatch},
	{"POST /v1/jobs", "jobs", (*Server).handleJobSubmit},
	{"GET /v1/jobs", "jobs", (*Server).handleJobList},
	{"GET /v1/jobs/{id}", "jobs", (*Server).handleJobGet},
	{"DELETE /v1/jobs/{id}", "jobs", (*Server).handleJobCancel},
	{"POST /v1/pipelines", "pipelines", (*Server).handlePipelineSubmit},
	{"GET /v1/pipelines", "pipelines", (*Server).handlePipelineList},
	{"DELETE /v1/pipelines", "pipelines", (*Server).handlePipelinePrune},
	{"GET /v1/pipelines/{id}", "pipelines", (*Server).handlePipelineGet},
	{"DELETE /v1/pipelines/{id}", "pipelines", (*Server).handlePipelineCancel},
	{"GET /v1/apps", "apps", (*Server).handleApps},
	{"GET /v1/systems", "systems", (*Server).handleSystems},
	{"GET /v1/stats", "stats", (*Server).handleStats},
	{"GET /metrics", "metrics", (*Server).handleMetrics},
	{"/healthz", "healthz", (*Server).handleHealth},
	{"/", "other", (*Server).handleNotFound},
}

// routeMux registers the route table. Each handler counts its request
// under its route's label and stores the label on the statusWriter for
// the middleware's response series. Each path with method patterns is
// registered once more without a method, so any other method gets the
// JSON 405 under the path's label, with an Allow header listing the
// table's methods for that path.
func (s *Server) routeMux() *http.ServeMux {
	mux := http.NewServeMux()
	allowed := map[string][]string{}
	labels := map[string]string{}
	for _, rt := range routes {
		handle, label, requests := rt.handle, rt.label, s.m.requests[rt.label]
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			requests.Inc()
			setRoute(w, label)
			handle(s, w, r)
		})
		if method, path, ok := strings.Cut(rt.pattern, " "); ok {
			allowed[path] = append(allowed[path], method)
			labels[path] = rt.label
		}
	}
	for path, methods := range allowed {
		slices.Sort(methods)
		allow, label := strings.Join(methods, ", "), labels[path]
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			setRoute(w, label)
			w.Header().Set("Allow", allow)
			s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed; use %s", r.Method, allow)
		})
	}
	return mux
}

// setRoute stores a route label on the middleware's statusWriter.
func setRoute(w http.ResponseWriter, label string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.route = label
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.reg.Handler().ServeHTTP(w, r)
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, http.StatusNotFound, "no route for %q", r.URL.Path)
}
