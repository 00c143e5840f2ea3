package sph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// TestStateHashPinned holds 40 steps of the production pipeline, on
// Turbulence and on gravity-coupled Evrard at side 20, to SHA-256s of the
// checkpoint each run ends in. Every field of every particle, the clock and
// the skin references are in those bytes, so a hash that moves means some
// pass no longer computes what it did. It gates rewrites of a pass that must
// keep every bit (the branch-free artificial viscosity of momentumPairs, the
// gather over grid-ordered coordinates). The pair passes' scatter merge is
// fixed only for a given worker count, so there is one hash per width.
//
// Re-recorded when IADVelocityDivCurl became one sweep accumulating D =
// Σ V dv⊗r W and forming the gradient as D·C (a reassociation of the
// per-pair C·r products), and the density sweep started evaluating the
// kernel at q = r·(1/h) with 1/h rounded once per particle and step.
func TestStateHashPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		gravity bool
		want    map[int]string // by GOMAXPROCS
	}{
		{"turbulence", false, map[int]string{
			1: "4e80b503fa79427b4fad2165db7bc839faa29acfe3d3d39da443cf1bf82b237a",
			2: "10c7aeb8afb250f720c785c49d7d233d58cd8e63eaae5e1d10dfddc61c4091d6",
			4: "dfa298db8694c518a4153063a483a2a94684da33aee19f11afe83fe1ac780c73",
		}},
		{"evrard", true, map[int]string{
			1: "83f75e04ef7ca14108513daff6c9c7c0b8b85a22a2244d80e4bff26c598808a3",
			2: "873bf172d3975146dfe9b63bd036500aadc68c9b2667ac00f32897a86438ecc3",
			4: "aa11214ddcdc0e239cf3e781c7c8cf2124ca547dee51023fff52659d661f76cb",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					if procs != 4 && raceDetectorOn() {
						// 20 s a width under -race; the widest one races
						// the passes, and the bits are the same either way.
						t.Skip("one width under the race detector")
					}
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					if got := stateHash(c.gravity); got != c.want[procs] {
						t.Errorf("state after 40 steps hashes to %s, want %s", got, c.want[procs])
					}
				})
			}
		})
	}
}

// stateHash runs 40 steps at side 20 and hashes the checkpoint they end in.
func stateHash(withGravity bool) string {
	var p *sph.Particles
	var opt sph.Options
	var extra func(*sph.Particles)
	if withGravity {
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
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// raceDetectorOn reports whether this test binary was built with -race.
func raceDetectorOn() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
