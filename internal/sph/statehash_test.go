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
// follow the records.
func TestStateHashPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		gravity bool
		want    map[int]string // by GOMAXPROCS
	}{
		{"turbulence", false, map[int]string{
			1: "981901a155585e0a2424895a410599cfb33032a2f47d2ca3080683dcff27e00e",
			2: "075accf8ce84a52dfbb3abae584ee06749227ac0490a44a6965eee9c5a05e7de",
			4: "a2aca91d510576984f38b9d1206bdb0ca06fa19047494fab5b60c470cd35a97e",
		}},
		{"evrard", true, map[int]string{
			1: "db5cf395b746682744ecca20baaae0ffed0779fbf5b8faf7144201d89a5117f0",
			2: "5a7df5a37abc48400f88536cd105663adac41c61abe83d76f66089547e71ac47",
			4: "62c3079779adff17f925a47c3ee2dd22b7e9e3073f9a24e6004e8d6e71c2bce8",
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
