package httpapi

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"lakeharbor/internal/sched"
)

// This file is the HTTP edge of multi-tenant admission control. With a
// scheduler attached (AttachScheduler), job-running endpoints require the
// X-Lake-Tenant header and run on the shared cluster-wide pool instead of a
// per-job one. Rejections map onto HTTP the way a retrying client expects:
//
//	429 + Retry-After   tenant over its concurrent-job quota, or the
//	                    scheduler shedding load (queue depth over the
//	                    shed threshold) — back off and retry
//	403                 unknown tenant — retrying cannot help
//	400                 missing X-Lake-Tenant header
//	503                 scheduler shut down
//
// DoWithRetryAfter is the matching client helper. /debug/metrics grows the
// scheduler's lakeharbor_sched_* / lakeharbor_tenant_* series.

// TenantHeader carries the submitting tenant on job-running requests.
const TenantHeader = "X-Lake-Tenant"

// AttachScheduler routes this server's job execution through a shared
// multi-tenant scheduler and enables admission control on the job
// endpoints. Call before serving.
func (s *Server) AttachScheduler(sc *sched.Scheduler) {
	s.sched = sc
	if sc != nil {
		s.AttachCollector(sc)
	}
}

// jobOptions resolves the tenant/scheduler part of core.Options for one
// job-running request. With no scheduler attached it returns "" and nil —
// the historical untenanted path. It writes the error response itself when
// ok is false.
func (s *Server) jobOptions(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	if s.sched == nil {
		return "", true
	}
	tenant = r.Header.Get(TenantHeader)
	if tenant == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("httpapi: this cluster runs multi-tenant admission; set the %s header", TenantHeader))
		return "", false
	}
	return tenant, true
}

// writeAdmissionError maps a job error onto the admission status codes
// above. It reports whether the error was an admission rejection (and was
// written); any other error stays with the caller.
func writeAdmissionError(w http.ResponseWriter, err error) bool {
	var ae *sched.AdmissionError
	if !errors.As(err, &ae) {
		return false
	}
	switch {
	case errors.Is(ae, sched.ErrUnknownTenant):
		writeError(w, http.StatusForbidden, ae)
	case errors.Is(ae, sched.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, ae)
	default: // over quota, overloaded: retryable
		secs := int64(math.Ceil(ae.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeError(w, http.StatusTooManyRequests, ae)
	}
	return true
}

// DoWithRetryAfter issues req, honoring 429 responses: it waits the
// server's Retry-After (capped at maxWait, floored at 10ms) and retries up
// to maxAttempts total attempts, returning the last response. Requests with
// a body must have GetBody set (GET/HEAD requests always qualify). The
// request context bounds the total wait.
func DoWithRetryAfter(client *http.Client, req *http.Request, maxAttempts int, maxWait time.Duration) (*http.Response, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		r := req
		if attempt > 0 && req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, fmt.Errorf("httpapi: retry %d: reread body: %w", attempt, err)
			}
			r = req.Clone(req.Context())
			r.Body = body
		}
		var err error
		resp, err = client.Do(r)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt+1 >= maxAttempts {
			return resp, nil
		}
		wait := 10 * time.Millisecond
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		if wait > maxWait {
			wait = maxWait
		}
		if wait < 10*time.Millisecond {
			wait = 10 * time.Millisecond
		}
		resp.Body.Close()
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(wait):
		}
	}
}
