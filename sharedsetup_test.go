package bookleaf

// The shared-setup contract (DESIGN.md §17): setup.ByName hands every
// run of a deck shape the same mesh and initial fields while any
// holder keeps them alive, so no driver, reorder pass, partitioner,
// remapper or supervisor may write to them. This battery fingerprints
// the shared setup around runs of every deck in decks/ and fails on
// any write.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bookleaf/internal/config"
	"bookleaf/internal/mesh"
	"bookleaf/internal/setup"
)

// setupFingerprint hashes every field of the mesh plus the initial
// fields, lengths included, so any in-place write or in-capacity
// append shows up.
func setupFingerprint(p *setup.Problem) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ints := func(s []int) {
		word(uint64(len(s)))
		for _, v := range s {
			word(uint64(v))
		}
	}
	floats := func(s []float64) {
		word(uint64(len(s)))
		for _, v := range s {
			word(math.Float64bits(v))
		}
	}
	quads := func(s [][4]int) {
		word(uint64(len(s)))
		for _, q := range s {
			ints(q[:])
		}
	}
	m := p.Mesh
	ints([]int{m.NEl, m.NNd, m.NOwnEl, m.NOwnNd})
	quads(m.ElNd)
	quads(m.ElEl)
	word(uint64(len(m.Faces)))
	for _, f := range m.Faces {
		ints([]int{f.N1, f.N2, f.Left, f.Right})
	}
	ints(m.NdElStart)
	ints(m.NdElList)
	ints(m.NdElCorner)
	ints(m.NdCorner)
	floats(m.X)
	floats(m.Y)
	ints(m.Region)
	word(uint64(len(m.BCs)))
	for _, b := range m.BCs {
		word(uint64(b))
	}
	ints(m.GlobalEl)
	ints(m.GlobalNd)
	floats(p.Rho)
	floats(p.Ein)
	return h.Sum64()
}

// deckConfig parses a repository deck into a run config.
func deckConfig(t *testing.T, path string) Config {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := config.ParseString(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromDeck(d)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// assertSetupUntouched runs cfg while holding the shape's shared setup
// and fails if the run wrote to it or did not run on it.
func assertSetupUntouched(t *testing.T, cfg Config) {
	t.Helper()
	p, err := setup.ByName(cfg.Problem, cfg.NX, cfg.NY, cfg.SedovEnergy)
	if err != nil {
		t.Fatal(err)
	}
	before := setupFingerprint(p)
	res, err := runBoundedResult(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh != p.Mesh {
		t.Fatal("run did not share the held setup mesh")
	}
	if after := setupFingerprint(p); after != before {
		t.Fatalf("run wrote to the shared setup (fingerprint %x -> %x)", before, after)
	}
}

// TestSharedSetupImmutable: every deck, serial and at ranks=2, on the
// canonical and a Hilbert-renumbered mesh, leaves the shared mesh and
// initial fields bit-for-bit as it found them.
func TestSharedSetupImmutable(t *testing.T) {
	decks, err := filepath.Glob("decks/*.deck")
	if err != nil || len(decks) == 0 {
		t.Fatalf("no decks found (%v)", err)
	}
	for _, path := range decks {
		name := strings.TrimSuffix(filepath.Base(path), ".deck")
		base := deckConfig(t, path)
		base.MaxSteps = 20
		base.Threads = 1
		ranks := []int{1, 2}
		if name == "sod_eulerian" {
			// Eulerian Sod aborts at ranks=2 (negative corner mass in
			// the remap), a known failure outside this contract.
			ranks = []int{1}
		}
		for _, r := range ranks {
			for _, reorder := range []string{"none", "hilbert"} {
				cfg := base
				cfg.Ranks = r
				cfg.Reorder = reorder
				t.Run(fmt.Sprintf("%s/ranks-%d/%s", name, r, reorder), func(t *testing.T) {
					assertSetupUntouched(t, cfg)
				})
			}
		}
	}
}

// TestSharedSetupImmutableUnderRepartition: the supervisor's online
// repartition (which re-splits the global mesh on moved centroids) and
// the smoothed remap leave the shared setup untouched too.
func TestSharedSetupImmutableUnderRepartition(t *testing.T) {
	assertSetupUntouched(t, Config{
		Problem: "noh", NX: 16, NY: 16, MaxSteps: 24,
		Ranks: 2, ALE: "smoothed", ALEFreq: 2, Reorder: "hilbert",
		Supervise: &SuperviseConfig{
			Enabled: true, RepartAtStep: 12, RepartRanks: 3, RanksMax: 4,
		},
	})
}

// TestSharedSetupFingerprintSeesWrites guards the guard: a single-bit
// write anywhere in the setup changes the fingerprint.
func TestSharedSetupFingerprintSeesWrites(t *testing.T) {
	fresh := func() *setup.Problem {
		p, err := setup.Sod(8, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := setupFingerprint(fresh())
	for name, poke := range map[string]func(p *setup.Problem){
		"x":      func(p *setup.Problem) { p.Mesh.X[3] = math.Nextafter(p.Mesh.X[3], 2) },
		"region": func(p *setup.Problem) { p.Mesh.Region[0] = 1 },
		"bcs":    func(p *setup.Problem) { p.Mesh.BCs[5] ^= mesh.Piston },
		"faces":  func(p *setup.Problem) { p.Mesh.Faces[0].Right = -2 },
		"corner": func(p *setup.Problem) { p.Mesh.NdCorner[1]++ },
		"rho":    func(p *setup.Problem) { p.Rho[2] *= 2 },
		"ein":    func(p *setup.Problem) { p.Ein[7] = 0 },
	} {
		p := fresh()
		poke(p)
		if setupFingerprint(p) == ref {
			t.Errorf("fingerprint blind to a write to %s", name)
		}
	}
}
