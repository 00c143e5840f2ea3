package sph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// TestStateHashPinned holds 40 steps of the production pipeline, on
// Turbulence and on gravity-coupled Evrard at side 20, to SHA-256s of the
// checkpoint each run ends in, recorded at commit 92e0561. Every field of
// every particle, the clock and the skin references are in those bytes, so
// a hash that moves means some pass no longer computes what it did. It
// gates rewrites of a pass that must keep every bit (the branch-free
// artificial viscosity of momentumPairs). The pair passes' scatter merge
// is fixed only for a given worker count, so the test runs at two.
func TestStateHashPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		name    string
		gravity bool
		want    string
	}{
		{"turbulence", false, "1f21a1a2b451d7c298a1e45fa313d0b1c74d156ab417964705dbb4914d8cbe3d"},
		{"evrard", true, "ada523f5d7c535a462aca5b737d0dd01a5ebbe33d7cb581c821eb27581cb12fa"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var p *sph.Particles
			var opt sph.Options
			var extra func(*sph.Particles)
			if c.gravity {
				p, opt = initcond.Evrard(initcond.DefaultEvrard(20))
				theta, eps, g := opt.GravTheta, opt.GravEps, opt.GravG
				extra = func(p *sph.Particles) {
					gravity.Build(p.X, p.Y, p.Z, p.M, theta, eps, g).AccelerationsInto(p.AX, p.AY, p.AZ, nil)
				}
			} else {
				p, opt = initcond.Turbulence(initcond.DefaultTurbulence(20))
			}
			st := sph.NewState(p, opt)
			for i := 0; i < 40; i++ {
				st.RunStep(extra)
			}
			h := sha256.New()
			if err := st.WriteCheckpoint(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("state after 40 steps hashes to %s, want %s (%+v)", got, c.want, st.NbrStats)
			}
		})
	}
}
