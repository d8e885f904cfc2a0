package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// MaxWaitPoll bounds the GET /jobs/{id}?wait= long-poll: longer waits are
// clamped, never rejected, so a client asking for "forever" still gets a
// bounded response and re-polls.
const MaxWaitPoll = 30 * time.Second

// maxJobSpecBytes bounds how much of a POST /jobs body is read. A JobSpec
// is a few hundred bytes; a body the decoder must read past this to finish
// is refused with 413.
const maxJobSpecBytes = 64 << 10

// NewHandler exposes a scheduler over HTTP — the scand daemon's API:
//
//	POST /jobs       submit a JobSpec (JSON body) → 202 {"id": N}
//	GET  /jobs/{id}  job status + result; ?wait=2s long-polls until the
//	                 job finishes or the (capped) wait elapses — the
//	                 response is the job's state either way
//	GET  /stats      aggregate service stats
//	GET  /metrics    Prometheus text exposition (counters, gauges,
//	                 per-kind/per-defense/per-site labels, stage and
//	                 latency histograms)
//	GET  /jobs/{id}/trace  sampled lifecycle trace: JSON span tree, or an
//	                 ASCII timeline with ?format=ascii (404 when the job
//	                 was unsampled or its trace was evicted)
//	POST /drain      stop accepting, run the queue dry (async) → 202
//	GET  /healthz    liveness
//
// Rejections map to HTTP backpressure codes: 429 + Retry-After on a full
// queue or when admission control sheds (ShedWatermark), 503 while
// draining. A body over maxJobSpecBytes is refused with 413.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes)).Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, "job spec exceeds "+strconv.Itoa(maxJobSpecBytes)+" bytes")
				return
			}
			httpError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
			return
		}
		j, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
			// Backpressure the client can obey: both shedding and a full
			// queue clear within the retry horizon of one job's latency.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			// j.ID is immutable; the live Status belongs to the store (an
			// executor may already be running the job).
			writeJSON(w, http.StatusAccepted, map[string]any{"id": j.ID, "status": StatusQueued})
		}
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad job id")
			return
		}
		if ws := r.URL.Query().Get("wait"); ws != "" {
			d, err := parseWait(ws)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad wait: "+err.Error())
				return
			}
			if j, ok := s.store.Get(id); ok && d > 0 {
				t := time.NewTimer(d)
				select {
				case <-j.Done():
				case <-t.C:
				case <-r.Context().Done():
				}
				t.Stop()
			}
		}
		snap, ok := s.JobSnapshot(id)
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad job id")
			return
		}
		tr, ok := s.Trace(id)
		if !ok {
			httpError(w, http.StatusNotFound, "no trace for job (tracing off, job unsampled, or trace evicted)")
			return
		}
		root := tr.Snapshot()
		if r.URL.Query().Get("format") == "ascii" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rows := timelineRows(root, 0, nil)
			_, _ = io.WriteString(w, trace.RenderTimeline(fmt.Sprintf("job %d lifecycle", id), rows, 60))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"job_id": id, "trace": root})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		go s.Drain()
		writeJSON(w, http.StatusAccepted, map[string]any{"draining": true})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return mux
}

// parseWait parses the ?wait= value — a Go duration ("500ms", "2s") or a
// plain number of seconds — clamped to [0, MaxWaitPoll].
func parseWait(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		secs, err2 := strconv.ParseFloat(s, 64)
		if err2 != nil {
			return 0, err
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d < 0 {
		d = 0
	}
	if d > MaxWaitPoll {
		d = MaxWaitPoll
	}
	return d, nil
}

// timelineRows flattens a span tree depth-first into the ASCII timeline's
// row form (label = span name, bar = the span's wall-clock interval).
func timelineRows(sp *obs.Span, depth int, rows []trace.TimelineRow) []trace.TimelineRow {
	if sp == nil {
		return rows
	}
	rows = append(rows, trace.TimelineRow{
		Label:   sp.Name,
		Depth:   depth,
		StartNs: sp.StartNs,
		EndNs:   sp.EndNs,
	})
	for _, c := range sp.Children {
		rows = timelineRows(c, depth+1, rows)
	}
	return rows
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
