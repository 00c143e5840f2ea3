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
// kernel at q = r·(1/h) with 1/h rounded once per particle and step; and
// again when the candidate gather took the half stencil: a pair is now owned
// by the endpoint it lies ahead of in the scan window, not by the larger h,
// so candidate order follows the half stencil, and the pair passes' sums
// follow the records; and again when the engine dropped the kernel's
// 2 000-point lookup table for the closed-form Wendland C2 polynomial, which
// moves every kernel value by up to the table's 5e-6 of the peak.
func TestStateHashPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		gravity bool
		want    map[int]string // by GOMAXPROCS
	}{
		{"turbulence", false, map[int]string{
			1: "fb05f6db0571444a6fa55f965a5b0c5d3586b5450ab65b8b3195a1b0a8372a6e",
			2: "54de7f5809cb4ad5bfd95242f8ed04a6bc7f8cc88024afb762197e1ff4047cfc",
			4: "f2b2f47f6b603df03a873ffc20ce9b6b8c0b31fd991a12572fa2bd6741597b42",
		}},
		{"evrard", true, map[int]string{
			1: "30a85d5147c43fbd0ade3d223afa06846d236df1403cf60f83c02ccf69d69cf7",
			2: "788ad2495c05fcf1840c11bbacf8c960070b7655b3faf41a638822c6f37c4706",
			4: "57897bf728d1c4fb1831b5d122be32e62ff36bf525f887e9ff462eb96c68c649",
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
