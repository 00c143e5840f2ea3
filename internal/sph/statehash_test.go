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
// moves every kernel value by up to the table's 5e-6 of the peak. The three
// turbulence hashes were re-recorded once more, with the engine untouched,
// when initcond.SolenoidalField.At took its modes from per-axis phase tables
// and angle addition: the initial velocities moved by up to 1e-14 of the
// direct mode sum, and with that sum's velocities the previous hashes came
// back at every width.
func TestStateHashPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		gravity bool
		want    map[int]string // by GOMAXPROCS
	}{
		{"turbulence", false, map[int]string{
			1: "345071150cb825acd615c379bcab45cab7d225710595eb42b36c7c813e99564f",
			2: "f49370026a27e5296adaf39153891fb48a52159ff3d1db95269a4e7eaa4d8ac8",
			4: "a9718e8a6f68b899c724c073a6d045abbe5905418333f168ac391ff985d3d16a",
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
