package cluster

import (
	"repro/internal/obs"
	"repro/internal/serve"
)

// routerMetrics is the router's Prometheus registry. Counters are
// native instruments incremented on the paths they describe; the
// per-replica gauges (registered per replica with a constant label)
// are refreshed from replica state on each scrape, so one scrape is
// internally consistent.
type routerMetrics struct {
	reg *obs.Registry

	reqDur *obs.HistogramVec // by route pattern

	reqs               *obs.Counter
	panics             *obs.Counter
	attempts           *obs.Counter
	retries            *obs.Counter
	failover           *obs.Counter
	staleServed        *obs.Counter
	unserved           *obs.Counter
	breakerTransitions *obs.Counter

	runtime *obs.RuntimeGauges
}

func newRouterMetrics() *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg: r,
		reqDur: r.HistogramVec("seda_router_request_duration_seconds",
			"router request latency by route (arrival to last client byte)", "route"),

		reqs: r.Counter("seda_router_requests_total",
			"requests received by the router"),
		panics: r.Counter("seda_router_panics_total",
			"router handler panics recovered by the middleware"),
		attempts: r.Counter("seda_router_attempts_total",
			"upstream attempts launched (first tries + retries)"),
		retries: r.Counter("seda_router_retries_total",
			"upstream attempts launched because a previous attempt failed"),
		failover: r.Counter("seda_router_failover_total",
			"requests answered by a replica other than the first-ranked candidate"),
		staleServed: r.Counter("seda_router_stale_served_total",
			"requests served stale from the shared cache tier with no replica available"),
		unserved: r.Counter("seda_router_unserved_total",
			"requests answered 503 after the retry budget and the stale tier both failed"),
		breakerTransitions: r.Counter("seda_router_breaker_transitions_total",
			"circuit-breaker transitions into the open state"),

		runtime: obs.NewRuntimeGauges(r),
	}
	serve.RegisterBuildInfo(r, obs.ReadBuild())
	return m
}

// registerReplica creates the per-replica series, labelled by replica
// name. Replica sets are fixed at construction, so the label
// cardinality is bounded by the -replicas flag.
func (m *routerMetrics) registerReplica(rep *Replica) {
	l := obs.Label{Name: "replica", Value: rep.Name}
	rep.upG = m.reg.Gauge("seda_router_replica_up",
		"1 when the replica's process was reachable at the last probe or attempt", l)
	rep.readyG = m.reg.Gauge("seda_router_replica_ready",
		"1 when the replica's last /readyz probe answered 200", l)
	rep.inflightG = m.reg.Gauge("seda_router_replica_inflight",
		"upstream attempts currently outstanding against the replica", l)
	rep.breakerG = m.reg.Gauge("seda_router_breaker_state",
		"circuit-breaker state: 0 closed, 1 open, 2 half-open", l)
}
