package setup

import (
	"runtime"
	"sync"
	"weak"

	"bookleaf/internal/eos"
	"bookleaf/internal/mesh"
)

// Shape interning. Runs and served jobs use a handful of deck shapes
// over and over, and every retained Result points at its problem mesh.
// Building each run's mesh afresh costs the mesh generation,
// connectivity and check passes per run, and leaves each retained
// result pinning a private copy. ByName therefore interns one
// immutable setup — the canonical mesh plus the initial fields — per
// shape and hands every later request for that shape the same one.
//
// The table holds the mesh only through a weak pointer, so it never
// keeps a mesh alive by itself: a shape lives exactly as long as some
// run, Problem or Result still references its mesh. When the last one
// goes, the garbage collector frees the mesh, and a cleanup attached
// to it drops the entry along with the initial fields it carried.
// That bounds the table by the live shapes, with no size option and
// no eviction policy.

// shapeKey identifies one deck shape. sedovE is the resolved Sedov
// blast energy and 0 for every other problem.
type shapeKey struct {
	name   string
	nx, ny int
	sedovE float64
}

// shape is one interned setup: the canonical mesh, held weakly, and
// the prototype problem (Mesh nil) whose Rho/Ein every copy shares.
type shape struct {
	mesh  weak.Pointer[mesh.Mesh]
	proto Problem
}

var shapes = struct {
	sync.Mutex
	m map[shapeKey]*shape
}{m: map[shapeKey]*shape{}}

// problem returns a fresh Problem on the shared mesh and fields, with
// its own copy of the options so callers may override them freely.
func (sh *shape) problem(m *mesh.Mesh) *Problem {
	p := sh.proto
	p.Mesh = m
	p.Opt.Materials = append([]eos.Material(nil), sh.proto.Opt.Materials...)
	return &p
}

// lookupShape returns a problem on k's live shared mesh, or nil when
// the shape was never built or its mesh has been collected.
func lookupShape(k shapeKey) *Problem {
	shapes.Lock()
	defer shapes.Unlock()
	return liveLocked(k)
}

func liveLocked(k shapeKey) *Problem {
	if sh := shapes.m[k]; sh != nil {
		if m := sh.mesh.Value(); m != nil {
			return sh.problem(m)
		}
	}
	return nil
}

// internShape publishes a freshly built problem as k's shared setup and
// returns a problem on it. When a concurrent build of the same shape
// got there first, the existing shared setup wins and p is discarded,
// so every live problem of a shape sees one mesh.
func internShape(k shapeKey, p *Problem) *Problem {
	shapes.Lock()
	defer shapes.Unlock()
	if q := liveLocked(k); q != nil {
		return q
	}
	sh := &shape{mesh: weak.Make(p.Mesh), proto: *p}
	sh.proto.Mesh = nil
	shapes.m[k] = sh
	runtime.AddCleanup(p.Mesh, dropShape, shapeRef{k, sh.mesh})
	return sh.problem(p.Mesh)
}

// shapeRef names the entry a mesh's cleanup may drop.
type shapeRef struct {
	key  shapeKey
	mesh weak.Pointer[mesh.Mesh]
}

// dropShape runs after a shared mesh has been collected. The entry is
// removed only if it still describes that mesh: a request that arrived
// between the collection and this cleanup may already have replaced it
// with a new build of the same shape.
func dropShape(r shapeRef) {
	shapes.Lock()
	defer shapes.Unlock()
	if sh := shapes.m[r.key]; sh != nil && sh.mesh == r.mesh {
		delete(shapes.m, r.key)
	}
}
