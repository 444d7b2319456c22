package jobsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hdsampler/internal/telemetry"
)

// NewHandler exposes a Manager as the hdsamplerd REST API:
//
//	POST   /jobs              submit a job (body: Spec JSON) → 201 + View
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         one job's live progress
//	DELETE /jobs/{id}         cancel a job
//	GET    /jobs/{id}/samples the job's samples as a store.SampleSet
//	GET    /metrics           service counters (Prometheus text format)
//	GET    /debug/walks       sampled end-to-end walk traces (JSON)
//	GET    /healthz           liveness + durability health (JSON; always
//	                          200 while the process serves — a degraded
//	                          journal is alarming, not fatal)
//	GET    /readyz            readiness probe (503 while draining)
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, fmt.Errorf("jobsvc: bad request body: %w", err), http.StatusBadRequest)
			return
		}
		v, err := m.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrShuttingDown) {
				code = http.StatusServiceUnavailable
			}
			httpError(w, err, code)
			return
		}
		writeJSON(w, http.StatusCreated, v)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Job(r.PathValue("id"))
		if err != nil {
			httpError(w, err, http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, err, http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /jobs/{id}/samples", func(w http.ResponseWriter, r *http.Request) {
		set, err := m.SampleSet(r.PathValue("id"))
		if err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrNotFound):
				code = http.StatusNotFound
			case errors.Is(err, ErrNoSamples):
				code = http.StatusConflict
			}
			httpError(w, err, code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = set.Write(w) // on error the headers are gone; nothing more to do

	})
	mux.Handle("GET /metrics", m.Registry().Handler())
	mux.HandleFunc("GET /debug/walks", func(w http.ResponseWriter, r *http.Request) {
		t := m.Tracer()
		st := t.Stats()
		walks := t.Dump()
		if walks == nil {
			walks = []telemetry.TraceView{}
		}
		writeJSON(w, http.StatusOK, WalkDump{
			Started:  st.Started,
			Finished: st.Finished,
			Evicted:  st.Evicted,
			Walks:    walks,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		h := m.Health()
		code := http.StatusOK
		if h.Draining {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	return mux
}

// WalkDump is the /debug/walks response: tracer lifetime counters plus
// the ring buffer's finished traces, oldest first.
type WalkDump struct {
	// Started counts walks sampled into tracing, Finished those whose
	// traces completed, Evicted the finished traces the ring displaced.
	Started  int64                 `json:"started"`
	Finished int64                 `json:"finished"`
	Evicted  int64                 `json:"evicted"`
	Walks    []telemetry.TraceView `json:"walks"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, err error, code int) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
