package serve

import (
	"repro/internal/obs"
)

// Serving-layer metrics, resolved once from the process-global registry
// (the serve.* family of /debug/metrics). The per-tenant counters,
// serve.tenant.<name>.{reads,writes,loads}, are held by each tenant
// (core.Tenant.Reads, Writes, Loads).
var (
	mRequests  = obs.Default().Counter("serve.requests")
	mErrors    = obs.Default().Counter("serve.errors")
	mRejected  = obs.Default().Counter("serve.admission.rejected")
	mTruncated = obs.Default().Counter("serve.truncated")
	mTenants   = obs.Default().Gauge("serve.tenants")
	hLatency   = obs.Default().Histogram("serve.latency")
)

// opCounter counts one operation kind daemon-wide: serve.ops.query,
// serve.ops.update, ...
func opCounter(op string) *obs.Counter {
	return obs.Default().Counter("serve.ops." + op)
}
