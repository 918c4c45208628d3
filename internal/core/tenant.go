package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ast"
	"repro/internal/batch"
)

// Version-pinning errors of Tenant.At. Both are plain sentinels so a
// serving layer can map them to distinct wire statuses (unknown version vs
// version evicted from retention).
var (
	// ErrVersionUnknown reports a version the tenant has never published.
	ErrVersionUnknown = errors.New("core: snapshot version never published")
	// ErrVersionEvicted reports a version that existed but has aged out of
	// the tenant's retention ring.
	ErrVersionEvicted = errors.New("core: snapshot version evicted from retention")
)

// Tenant couples one named Engine with its serving state: a bounded
// admission semaphore and a ring of recently published snapshots, so a
// network client can pin several requests to one version even though other
// clients keep writing. Writes through Tenant.Update/Retract retain the
// snapshot they publish; reads resolve a version with At or take the tip
// with Current.
type Tenant struct {
	name string
	eng  *Engine
	sem  *batch.Semaphore

	mu       sync.Mutex
	retained []*Snapshot // ascending version order, bounded by retain
	retain   int
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// Engine returns the tenant's engine.
func (t *Tenant) Engine() *Engine { return t.eng }

// Acquire takes an admission slot, waiting until one frees or ctx dies,
// and returns the release function. The error contract is that of
// batch.Semaphore.Acquire: an interrupt.Error once ctx is cancelled or
// past its deadline, so a queued request never outlives its own budget.
func (t *Tenant) Acquire(ctx context.Context) (release func(), err error) {
	if err := t.sem.Acquire(ctx); err != nil {
		return nil, err
	}
	return t.sem.Release, nil
}

// TryAcquire takes an admission slot without blocking; the second return
// reports success. On success the first return releases the slot.
func (t *Tenant) TryAcquire() (release func(), ok bool) {
	if !t.sem.TryAcquire() {
		return nil, false
	}
	return t.sem.Release, true
}

// InFlight returns the number of admission slots currently held.
func (t *Tenant) InFlight() int { return t.sem.InFlight() }

// Current returns the engine's current snapshot — the freshest version.
func (t *Tenant) Current() *Snapshot { return t.eng.Current() }

// At resolves a pinned snapshot version: the current version, or any older
// version still in the retention ring. It fails with ErrVersionUnknown for
// versions never published (ahead of the tip) and ErrVersionEvicted for
// versions that have aged out.
func (t *Tenant) At(version uint64) (*Snapshot, error) {
	cur := t.eng.Current()
	if version == cur.Version() {
		return cur, nil
	}
	if version > cur.Version() {
		return nil, fmt.Errorf("%w: v%d is ahead of current v%d", ErrVersionUnknown, version, cur.Version())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.retained {
		if s.Version() == version {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: v%d (retaining the last %d versions)", ErrVersionEvicted, version, t.retain)
}

// AsOf resolves a time-travel snapshot: the retention ring when the
// version is still pinned there (same fast path as At), otherwise the
// engine's AsOf reconstruction through the update history and — on a
// durable tenant — the WAL. The error contract matches At's:
// ErrVersionUnknown ahead of the tip, ErrVersionEvicted when the version
// predates every reachable source. ctx bounds a reconstruction (see
// Engine.AsOfCtx); an interrupted one fails with an interrupt.Error.
func (t *Tenant) AsOf(ctx context.Context, version uint64) (*Snapshot, error) {
	s, err := t.At(version)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, ErrVersionEvicted) {
		return nil, err
	}
	return t.eng.AsOfCtx(ctx, version)
}

// Versions returns the pinnable versions, ascending. The current version
// is always present.
func (t *Tenant) Versions() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(t.retained))
	for i, s := range t.retained {
		out[i] = s.Version()
	}
	return out
}

// Update asserts ground facts in the component through the engine (one
// atomic snapshot bump, see Engine.Update) and retains the published
// version for pinned reads.
func (t *Tenant) Update(ctx context.Context, comp string, facts []ast.Literal) (*Snapshot, error) {
	s, err := t.eng.Update(ctx, comp, facts)
	if err != nil {
		return nil, err
	}
	t.retainSnap(s)
	return s, nil
}

// Retract removes ground facts from the component through the engine and
// retains the published version for pinned reads.
func (t *Tenant) Retract(ctx context.Context, comp string, facts []ast.Literal) (*Snapshot, error) {
	s, err := t.eng.Retract(ctx, comp, facts)
	if err != nil {
		return nil, err
	}
	t.retainSnap(s)
	return s, nil
}

// retainSnap inserts s into the retention ring (idempotently — a no-op
// update returns its parent) and evicts the oldest versions past the
// bound. Insertion keeps ascending order even if two writers race between
// publishing and retaining.
func (t *Tenant) retainSnap(s *Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := s.Version()
	i := sort.Search(len(t.retained), func(i int) bool { return t.retained[i].Version() >= v })
	if i < len(t.retained) && t.retained[i].Version() == v {
		return
	}
	t.retained = append(t.retained, nil)
	copy(t.retained[i+1:], t.retained[i:])
	t.retained[i] = s
	if len(t.retained) > t.retain {
		over := len(t.retained) - t.retain
		copy(t.retained, t.retained[over:])
		for j := len(t.retained) - over; j < len(t.retained); j++ {
			t.retained[j] = nil
		}
		t.retained = t.retained[:len(t.retained)-over]
	}
}

// Registry is a concurrent map of named tenants: the multi-program serving
// surface of ordlogd. Create/replace/drop hold the write lock only for the
// map mutation — engine construction (grounding) runs outside it, so
// loading one large tenant never blocks traffic to the others.
type Registry struct {
	inflight int
	retain   int

	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewRegistry returns an empty registry. Each tenant created through it
// admits at most inflight concurrent requests (<= 0 = unbounded) and
// retains up to retain snapshot versions for pinned reads (<= 0 uses the
// default of 8; the current version is always pinnable regardless).
func NewRegistry(inflight, retain int) *Registry {
	if retain <= 0 {
		retain = 8
	}
	return &Registry{inflight: inflight, retain: retain, tenants: make(map[string]*Tenant)}
}

// Put grounds the program into a fresh engine and publishes it under the
// name, replacing any existing tenant (replaced reports which). The old
// tenant's engine, if any, keeps serving requests that already hold it;
// new lookups see the new one — the same publish-and-abandon discipline as
// snapshots. Construction honours ctx (see NewEngineCtx); on error the
// registry is unchanged.
func (r *Registry) Put(ctx context.Context, name string, p *ast.OrderedProgram, cfg Config, opts ...Option) (t *Tenant, replaced bool, err error) {
	if name == "" {
		return nil, false, fmt.Errorf("core: tenant name must be non-empty")
	}
	eng, err := NewEngineCtx(ctx, p, cfg, opts...)
	if err != nil {
		return nil, false, err
	}
	t, replaced = r.publish(name, eng)
	return t, replaced, nil
}

// publish wraps eng as a tenant and swaps it in under name, closing the
// replaced tenant's engine (if any). Closing matters for durable tenants:
// the old engine shares the new one's WAL directory, and a stale writer
// appending to it would fork the hash chain — after Close its writes fail
// with wal.ErrClosed instead. In-flight reads against the old engine are
// unaffected.
func (r *Registry) publish(name string, eng *Engine) (*Tenant, bool) {
	t := &Tenant{
		name:     name,
		eng:      eng,
		sem:      batch.NewSemaphore(r.inflight),
		retain:   r.retain,
		retained: []*Snapshot{eng.Current()},
	}
	r.mu.Lock()
	old := r.tenants[name]
	r.tenants[name] = t
	r.mu.Unlock()
	if old != nil {
		_ = old.eng.Close()
	}
	return t, old != nil
}

// Attach publishes an already constructed engine — typically one rebuilt
// by core.Recover — under the name, with the same replace semantics as
// Put.
func (r *Registry) Attach(name string, eng *Engine) (t *Tenant, replaced bool, err error) {
	if name == "" {
		return nil, false, fmt.Errorf("core: tenant name must be non-empty")
	}
	if eng == nil {
		return nil, false, fmt.Errorf("core: tenant %q: nil engine", name)
	}
	t, replaced = r.publish(name, eng)
	return t, replaced, nil
}

// Get returns the named tenant.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Drop removes the named tenant, reporting whether it existed. Requests
// already holding the tenant finish against it; the engine is garbage once
// they do.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	t, ok := r.tenants[name]
	delete(r.tenants, name)
	r.mu.Unlock()
	if ok {
		_ = t.eng.Close()
	}
	return ok
}

// Close flushes and closes every tenant's write-ahead log (a no-op for
// memory-only tenants), returning the first error. The daemon calls it
// after drain so a graceful shutdown never loses interval-sync appends.
func (r *Registry) Close() error {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	var first error
	for _, t := range tenants {
		if err := t.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Names returns the tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}
