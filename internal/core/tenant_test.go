package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interrupt"
	"repro/internal/parser"
)

func tenantProgram(t *testing.T, facts ...string) *ast.OrderedProgram {
	t.Helper()
	src := "module main {\n  q(X) :- p(X).\n"
	for _, f := range facts {
		src += "  p(" + f + ").\n"
	}
	src += "}\n"
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func lit(t *testing.T, s string) ast.Literal {
	t.Helper()
	l, err := parser.ParseLiteral(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRegistryLifecycle(t *testing.T) {
	r := core.NewRegistry(0, 4)
	ctx := context.Background()
	if _, _, err := r.Put(ctx, "", tenantProgram(t, "a"), core.Config{}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	ta, replaced, err := r.Put(ctx, "a", tenantProgram(t, "a"), core.Config{})
	if err != nil || replaced {
		t.Fatalf("Put a: replaced=%v err=%v", replaced, err)
	}
	if _, _, err := r.Put(ctx, "b", tenantProgram(t, "b"), core.Config{}); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v, want [a b]", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got, ok := r.Get("a"); !ok || got != ta || got.Name() != "a" {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	// Replacing publishes a fresh engine at version 0.
	if _, err := ta.Update(ctx, "main", []ast.Literal{lit(t, "p(x1)")}); err != nil {
		t.Fatal(err)
	}
	ta2, replaced, err := r.Put(ctx, "a", tenantProgram(t, "a2"), core.Config{})
	if err != nil || !replaced {
		t.Fatalf("replace a: replaced=%v err=%v", replaced, err)
	}
	if ta2.Current().Version() != 0 {
		t.Fatalf("replacement starts at version %d, want 0", ta2.Current().Version())
	}
	if !r.Drop("b") || r.Drop("b") {
		t.Fatal("Drop must report existence exactly once")
	}
	if _, ok := r.Get("b"); ok {
		t.Fatal("dropped tenant still resolvable")
	}
}

func TestTenantVersionPinning(t *testing.T) {
	r := core.NewRegistry(0, 3)
	ctx := context.Background()
	tn, _, err := r.Put(ctx, "t", tenantProgram(t, "seed"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// v0 is retained from creation.
	if s, err := tn.At(0); err != nil || s.Version() != 0 {
		t.Fatalf("At(0) = %v, %v", s, err)
	}
	snaps := []*core.Snapshot{tn.Current()}
	for i := 0; i < 5; i++ {
		s, err := tn.Update(ctx, "main", []ast.Literal{lit(t, fmt.Sprintf("p(u%d)", i))})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	if got := tn.Current().Version(); got != 5 {
		t.Fatalf("current version = %d, want 5", got)
	}
	// Retention bound 3: versions 3,4,5 pinnable; 0..2 evicted; 9 unknown.
	if got := tn.Versions(); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("Versions = %v, want [3 4 5]", got)
	}
	for v := uint64(3); v <= 5; v++ {
		s, err := tn.At(v)
		if err != nil {
			t.Fatalf("At(%d): %v", v, err)
		}
		if s.Version() != v {
			t.Fatalf("At(%d) returned version %d", v, s.Version())
		}
		// The pinned snapshot answers as of its version: p(u<k>) holds
		// exactly for k < v-0 (updates 0..v-1).
		m, err := s.LeastModelCtx(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			want := uint64(k) < v
			if got := m.Holds(lit(t, fmt.Sprintf("q(u%d)", k))); got != want {
				t.Fatalf("v%d: q(u%d) = %v, want %v", v, k, got, want)
			}
		}
	}
	if _, err := tn.At(1); !errors.Is(err, core.ErrVersionEvicted) {
		t.Fatalf("At(1) err = %v, want ErrVersionEvicted", err)
	}
	if _, err := tn.At(9); !errors.Is(err, core.ErrVersionUnknown) {
		t.Fatalf("At(9) err = %v, want ErrVersionUnknown", err)
	}
}

func TestTenantAdmission(t *testing.T) {
	r := core.NewRegistry(1, 0)
	tn, _, err := r.Put(context.Background(), "t", tenantProgram(t, "a"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tn.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", tn.InFlight())
	}
	// Under an already-cancelled context Acquire is a non-blocking try.
	done, stop := context.WithCancel(context.Background())
	stop()
	if err := tn.Acquire(done); err == nil {
		t.Fatal("second non-blocking Acquire succeeded at bound 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := tn.Acquire(ctx); !errors.Is(err, interrupt.ErrInterrupted) {
		t.Fatalf("blocked Acquire err = %v, want ErrInterrupted", err)
	}
	tn.Release()
	if err := tn.Acquire(done); err != nil {
		t.Fatalf("non-blocking Acquire after release: %v", err)
	}
	tn.Release()
	if tn.InFlight() != 0 {
		t.Fatalf("InFlight = %d after every release, want 0", tn.InFlight())
	}
}

// Concurrent writers against one tenant: versions stay monotonic, the
// retention ring stays sorted and every writer's facts land. Run with
// -race.
func TestTenantConcurrentWriters(t *testing.T) {
	r := core.NewRegistry(0, 64)
	tn, _, err := r.Put(context.Background(), "t", tenantProgram(t, "seed"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := lit(t, fmt.Sprintf("p(w%d_%d)", w, i))
				if _, err := tn.Update(context.Background(), "main", []ast.Literal{f}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tn.Current().Version(); got != writers*perWriter {
		t.Fatalf("final version = %d, want %d", got, writers*perWriter)
	}
	vs := tn.Versions()
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			t.Fatalf("retained versions not strictly ascending: %v", vs)
		}
	}
	m, err := tn.Current().LeastModelCtx(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if !m.Holds(lit(t, fmt.Sprintf("q(w%d_%d)", w, i))) {
				t.Fatalf("fact from writer %d op %d missing", w, i)
			}
		}
	}
}
