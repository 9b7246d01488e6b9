package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// PredictRequest is the JSON body of POST /predict: a flat input vector
// matching the served network's input size (e.g. 784 values for a 28×28
// model).
type PredictRequest struct {
	Input []float64 `json:"input"`
}

// PredictResponse is the JSON reply: the per-class scores and their argmax.
type PredictResponse struct {
	Scores []float64 `json:"scores"`
	Class  int       `json:"class"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// DecodePredictRequest parses and validates a predict body against the
// expected input size. It rejects malformed JSON, unknown fields, wrong
// lengths, and non-finite values (NaN/±Inf would poison the quantization
// scale), and it never panics on any input — the fuzz-tested contract.
func DecodePredictRequest(body []byte, wantSize int) (*tensor.Tensor, error) {
	var req PredictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: bad request body: %w", err)
	}
	if dec.More() {
		return nil, errors.New("serve: trailing data after request body")
	}
	if len(req.Input) == 0 {
		return nil, errors.New("serve: missing input")
	}
	if len(req.Input) != wantSize {
		return nil, fmt.Errorf("serve: input has %d elements, want %d", len(req.Input), wantSize)
	}
	if err := checkFinite(req.Input); err != nil {
		return nil, err
	}
	return tensor.FromSlice(req.Input, wantSize), nil
}

// checkFinite rejects an input holding NaN or ±Inf, the rule the HTTP
// decoder and Predict share. Served, such a value poisons the quantization
// scale: the answer comes back without an error, as a wrong class or as NaN
// scores.
func checkFinite(input []float64) error {
	for i, v := range input {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("serve: input[%d] is not finite", i)
		}
	}
	return nil
}

// FlightTraceHeader carries a request's flight-recorder trace id: send it to
// attribute the request's spans to a caller-chosen id, and read it off the
// response to find the span tree a prediction produced (e.g. in the
// /debug/flight/trace.json download). Absent when tracing is disabled.
const FlightTraceHeader = "X-Flight-Trace"

// WeightVersionHeader echoes, on every successful prediction, the weight
// version that computed the response — the HTTP face of Result.Version.
const WeightVersionHeader = "X-Weight-Version"

// HealthResponse is the GET /healthz body: the readiness state ("ok",
// "lagging", "pinned" with a 200, or "draining" with a 503) and the weight
// version currently being served.
type HealthResponse struct {
	Status        string `json:"status"`
	WeightVersion uint64 `json:"weight_version"`
}

// Handler returns the server's HTTP interface:
//
//	POST /predict  — PredictRequest in, PredictResponse out
//	GET  /healthz  — HealthResponse: 200 while serving (status ok, lagging,
//	                 or pinned — see Readiness), 503 once draining
//
// timeout, when positive, bounds each request's time in the queue and
// readout via its context. Overload maps to 503 (retryable, with a
// Retry-After estimate from the current queue depth), a deadline to 504,
// and any validation failure to 400. See FlightTraceHeader for trace
// correlation and WeightVersionHeader for version attribution.
func (s *Server) Handler(timeout time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Closed() {
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining", WeightVersion: s.Version()})
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{Status: s.Readiness().String(), WeightVersion: s.Version()})
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
			return
		}
		body := http.MaxBytesReader(w, r.Body, 1<<22) // 4 MiB: far above any sane input
		defer body.Close()
		buf, err := io.ReadAll(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		x, err := DecodePredictRequest(buf, s.in)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		if h := r.Header.Get(FlightTraceHeader); h != "" {
			if id, perr := strconv.ParseUint(h, 10, 64); perr == nil && id != 0 {
				ctx = flight.WithTrace(ctx, id)
			}
		}
		res, err := s.Predict(ctx, x)
		switch {
		case err == nil:
			if res.Trace != 0 {
				w.Header().Set(FlightTraceHeader, strconv.FormatUint(res.Trace, 10))
			}
			w.Header().Set(WeightVersionHeader, strconv.FormatUint(res.Version, 10))
			writeJSON(w, http.StatusOK, PredictResponse{Scores: res.Scores.Data(), Class: res.Class})
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		case errors.Is(err, ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
