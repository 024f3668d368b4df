package trace

import "context"

// RPCInfo is the trace context a remote storage admission carries across the
// nodenet wire: which job caused the work, on behalf of which tenant, from
// which stage, and on which retry attempt. The executor stamps it onto each
// dereference task's context; the nodenet client copies it into the request
// frame so the node can attribute its own spans to the originating job.
type RPCInfo struct {
	// Job is the originating job's name. A zero Job means "no trace
	// context": untraced callers (loaders, tools) never stamp one.
	Job string
	// Tenant is the principal the job runs on behalf of (may be empty).
	Tenant string
	// Stage is the job stage issuing the access (>= 0 when stamped).
	Stage int
	// Attempt is the retry ordinal of the dereference driving this access:
	// 0 for the first try, incremented per executor retry.
	Attempt int
}

// rpcKey is the key an rpcCtx answers Value for.
type rpcKey struct{}

// rpcCtx carries an RPCInfo by value: stamping a context costs this one
// allocation, where context.WithValue would box the info as well.
type rpcCtx struct {
	context.Context
	info RPCInfo
}

// Value answers rpcKey with the rpcCtx itself and delegates every other key.
func (c *rpcCtx) Value(key any) any {
	if key == (rpcKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// WithRPC attaches the RPC trace context to ctx. The storage transports read
// it back with RPCFrom to attribute remote work to (job, stage, tenant).
func WithRPC(ctx context.Context, info RPCInfo) context.Context {
	return &rpcCtx{Context: ctx, info: info}
}

// RPCFrom returns the RPC trace context attached to ctx; the zero RPCInfo
// (Job == "") when the caller is untraced.
func RPCFrom(ctx context.Context) RPCInfo {
	if c, ok := ctx.Value(rpcKey{}).(*rpcCtx); ok {
		return c.info
	}
	return RPCInfo{}
}

// WithRPCAttempt re-stamps ctx's RPC trace context with the given retry
// attempt. A no-op returning ctx unchanged when no context is attached.
func WithRPCAttempt(ctx context.Context, attempt int) context.Context {
	info := RPCFrom(ctx)
	if info.Job == "" {
		return ctx
	}
	info.Attempt = attempt
	return WithRPC(ctx, info)
}
