package service

import "github.com/fg-go/fg/fg"

// emitMetrics is the collector behind the daemon's /metrics registry: the
// daemon ledger first, then every running job's registry samples with a
// job label spliced in, so one scrape distinguishes tenants. Settled jobs
// drop out of the scrape, which keeps the exposition bounded however many
// jobs the daemon has retired. fg's exposition writer renders it all, HELP
// text included.
func (s *Server) emitMetrics(emit fg.EmitFunc) {
	st := s.Status(false)
	up := 0.0
	if st.State == "serving" {
		up = 1
	}
	emit("fgd_up", nil, up)
	emit("fgd_uptime_seconds", nil, st.UptimeSeconds)
	emit("fgd_jobs_submitted_total", nil, float64(st.Submitted))
	emit("fgd_jobs_accepted_total", nil, float64(st.Accepted))
	emit("fgd_jobs_done_total", nil, float64(st.Done))
	emit("fgd_jobs_failed_total", nil, float64(st.Failed))
	emit("fgd_jobs_cancelled_total", nil, float64(st.Cancelled))
	emit("fgd_jobs_running", nil, float64(st.Running))
	emit("fgd_jobs_running_max", nil, float64(st.MaxRunningObserved))
	emit("fgd_queue_depth", nil, float64(st.QueueDepth))
	emit("fgd_queue_cap", nil, float64(st.QueueCap))
	emit("fgd_pool_workers", nil, float64(st.PoolWorkers))
	rejected := func(reason string, n int64) {
		emit("fgd_jobs_rejected_total", map[string]string{"reason": reason}, float64(n))
	}
	rejected("queue_full", st.RejectedFull)
	rejected("quota", st.RejectedQuota)
	rejected("invalid", st.RejectedInvalid)
	rejected("draining", st.RejectedDraining)

	for _, j := range s.Jobs() {
		if j.State() != StateRunning {
			continue
		}
		obs := j.observeBundle()
		if obs == nil || obs.Metrics == nil {
			continue
		}
		for _, sm := range obs.Metrics.Samples() {
			labels := map[string]string{"job": j.ID}
			for k, v := range sm.Labels {
				if k != "job" {
					labels[k] = v
				}
			}
			emit(sm.Name, labels, sm.Value)
		}
	}
}
