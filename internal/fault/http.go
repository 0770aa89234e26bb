package fault

import (
	"net/http"
	"strconv"
	"time"

	"factcheck/internal/det"
)

// HTTPSpec describes faults injected ahead of an HTTP handler: the plan's
// search-err, search-latency and search-stall clauses, applied to the mock
// search API's mount.
type HTTPSpec struct {
	// FailRate answers 500 + Retry-After at this rate.
	FailRate float64
	// Latency is a fixed real sleep added to every request.
	Latency time.Duration
	// StallRate hangs the request until the client gives up (its context
	// is done) at this rate.
	StallRate float64
}

// Empty reports whether the spec injects nothing.
func (s HTTPSpec) Empty() bool { return s == HTTPSpec{} }

// HTTPMiddleware wraps next with the spec's faults, det-keyed by seed,
// request coordinates (method + path + query) and a per-coordinate call
// sequence — so replaying the same request stream replays the same faults.
// next is returned unchanged when the spec is empty.
func HTTPMiddleware(spec HTTPSpec, seed string, next http.Handler) http.Handler {
	if spec.Empty() {
		return next
	}
	seqs := &Injector{seq: map[string]int{}}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		coord := r.Method + "\x00" + r.URL.Path + "\x00" + r.URL.RawQuery
		seq := strconv.Itoa(seqs.next(coord))
		if spec.Latency > 0 {
			t := time.NewTimer(spec.Latency)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		if spec.StallRate > 0 && det.Bool(spec.StallRate, "fault", seed, "httpstall", coord, seq) {
			<-r.Context().Done()
			return
		}
		if spec.FailRate > 0 && det.Bool(spec.FailRate, "fault", seed, "httperr", coord, seq) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}
