package setup

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// liveShapes reports how many entries the intern table holds.
func liveShapes() int {
	shapes.Lock()
	defer shapes.Unlock()
	return len(shapes.m)
}

func mustByName(t *testing.T, name string, nx, ny int, sedovE float64) *Problem {
	t.Helper()
	p, err := ByName(name, nx, ny, sedovE)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInternSharesWhileHeld: a repeated shape gets the same mesh and
// initial fields while an earlier problem still holds them, but its own
// Problem struct and options.
func TestInternSharesWhileHeld(t *testing.T) {
	p := mustByName(t, "sod", 40, 4, 0)
	q := mustByName(t, "sod", 40, 4, 0)
	if p == q {
		t.Fatal("ByName returned the same Problem struct twice")
	}
	if p.Mesh != q.Mesh {
		t.Fatal("same shape built a second mesh while the first was held")
	}
	if &p.Rho[0] != &q.Rho[0] || &p.Ein[0] != &q.Ein[0] {
		t.Fatal("same shape rebuilt its initial fields")
	}
	if &p.Opt.Materials[0] == &q.Opt.Materials[0] {
		t.Fatal("problems of one shape share an options material table")
	}
	q.Opt.CFL = 0.1
	if p.Opt.CFL == 0.1 {
		t.Fatal("an options override leaked into another problem of the shape")
	}
	runtime.KeepAlive(p)
}

// TestInternKeyFields: every key field separates entries, and the
// Sedov energy is normalised (default resolved, ignored off Sedov).
func TestInternKeyFields(t *testing.T) {
	base := mustByName(t, "sod", 24, 4, 0)
	for _, tc := range []struct {
		name   string
		nx, ny int
		sedovE float64
	}{
		{"waterair", 24, 4, 0}, // problem
		{"sod", 25, 4, 0},      // nx
		{"sod", 24, 5, 0},      // ny
	} {
		if p := mustByName(t, tc.name, tc.nx, tc.ny, tc.sedovE); p.Mesh == base.Mesh {
			t.Fatalf("%s %dx%d shares the sod 24x4 mesh", tc.name, tc.nx, tc.ny)
		}
	}
	if p := mustByName(t, "sod", 24, 4, 7); p.Mesh != base.Mesh {
		t.Fatal("a Sedov energy on a sod deck split the entry")
	}

	sedov := mustByName(t, "sedov", 12, 12, 0)
	if p := mustByName(t, "sedov", 12, 12, 0.311); p.Mesh != sedov.Mesh {
		t.Fatal("explicit default Sedov energy missed the defaulted entry")
	}
	hot := mustByName(t, "sedov", 12, 12, 0.5)
	if hot.Mesh == sedov.Mesh || hot.SedovEnergy != 0.5 {
		t.Fatal("Sedov energy does not separate entries")
	}
	if hot.Ein[0] == sedov.Ein[0] {
		t.Fatal("Sedov entries of different energy share initial fields")
	}
	runtime.KeepAlive(base)
}

// TestInternTableDrains: once nothing references a shape's mesh, a GC
// frees it and its cleanup empties the table — the table's bound is
// the set of live shapes, with no size option.
func TestInternTableDrains(t *testing.T) {
	func() {
		for _, name := range []string{"sod", "noh", "sedov", "saltzmann", "waterair"} {
			a := mustByName(t, name, 10, 6, 0)
			b := mustByName(t, name, 10, 6, 0)
			if a.Mesh != b.Mesh {
				t.Fatalf("%s: held shape not shared", name)
			}
		}
		if liveShapes() == 0 {
			t.Fatal("table empty while shapes are held")
		}
	}()
	// Cleanups run on their own goroutine some time after the cycle
	// that frees the mesh, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for liveShapes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d shapes still interned with no live reference", liveShapes())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	// A collected shape rebuilds cleanly.
	p := mustByName(t, "sod", 10, 6, 0)
	if err := p.Mesh.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestInternHitAllocatesNoMesh: a hit costs the Problem struct and its
// material table, nothing proportional to the mesh.
func TestInternHitAllocatesNoMesh(t *testing.T) {
	held := mustByName(t, "noh", 64, 64, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("noh", 64, 64, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("cache hit made %v allocations, want <= 2", allocs)
	}
	const hits = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if _, err := ByName("noh", 64, 64, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	// One float64 per element is already 32 KiB at 64x64.
	if perHit > 1024 {
		t.Fatalf("cache hit allocated %d bytes, want < 1 KiB", perHit)
	}
	runtime.KeepAlive(held)
}

// TestInternConcurrentBuilds: racing first requests for one shape all
// end up on a single mesh, even though several may build one.
func TestInternConcurrentBuilds(t *testing.T) {
	const n = 8
	got := make([]*Problem, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := ByName("saltzmann", 30, 3, 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p == nil || p.Mesh != got[0].Mesh {
			t.Fatalf("request %d got a different mesh", i)
		}
	}
}
