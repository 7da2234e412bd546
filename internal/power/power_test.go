package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGCIPowerEndpoints(t *testing.T) {
	// u=0: (2/18)·40 = 4.444… W
	p0, err := GCIPower(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p0-2.0/18*40) > 1e-9 {
		t.Fatalf("idle GCI power %v", p0)
	}
	// u=1: (2/18)·180 = 20 W
	p1, err := GCIPower(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-20) > 1e-9 {
		t.Fatalf("peak GCI power %v, want 20", p1)
	}
}

func TestGCIPowerBetaShape(t *testing.T) {
	// With β=0.75 < 1, power at u=0.5 exceeds the linear interpolation.
	p, err := GCIPower(0.5)
	if err != nil {
		t.Fatal(err)
	}
	linear := 2.0 / 18 * (40 + 140*0.5)
	if p <= linear {
		t.Fatalf("β=0.75 curve should be concave: %v <= %v", p, linear)
	}
}

func TestPiPowerEndpoints(t *testing.T) {
	p0, _ := PiPower(0)
	if math.Abs(p0-2.7) > 1e-9 {
		t.Fatalf("Pi idle %v, want 2.7", p0)
	}
	p1, _ := PiPower(1)
	if math.Abs(p1-6.4) > 1e-9 {
		t.Fatalf("Pi peak %v, want 6.4", p1)
	}
	// β=1 means exactly linear.
	pHalf, _ := PiPower(0.5)
	if math.Abs(pHalf-(2.7+3.7*0.5)) > 1e-9 {
		t.Fatalf("Pi power at 0.5 = %v", pHalf)
	}
}

func TestK80Power(t *testing.T) {
	full, _ := K80Power(1)
	if math.Abs(full-96.7) > 1e-9 {
		t.Fatalf("K80 full power %v, want 96.7", full)
	}
	idle, _ := K80Power(0)
	if math.Abs(idle-17.7) > 1e-9 {
		t.Fatalf("K80 CPU-only power %v, want 17.7", idle)
	}
	// The paper's observation: GPU average power (79 W) is about six times
	// the CPU's (17.7 W).
	if ratio := K80GPUWatts / K80CPUWatts; ratio < 4 || ratio > 6 {
		t.Fatalf("GPU/CPU power ratio %v outside the paper's ≈6×", ratio)
	}
}

func TestUtilizationValidation(t *testing.T) {
	for _, u := range []float64{-0.1, 1.1} {
		if _, err := GCIPower(u); err == nil {
			t.Errorf("GCIPower(%v) should error", u)
		}
		if _, err := PiPower(u); err == nil {
			t.Errorf("PiPower(%v) should error", u)
		}
		if _, err := K80Power(u); err == nil {
			t.Errorf("K80Power(%v) should error", u)
		}
	}
}

func TestEnergy(t *testing.T) {
	e, err := Energy(5, 2)
	if err != nil || e != 10 {
		t.Fatalf("Energy = %v, %v", e, err)
	}
	if _, err := Energy(-1, 1); err == nil {
		t.Fatal("negative power should error")
	}
	if _, err := Energy(1, -1); err == nil {
		t.Fatal("negative time should error")
	}
}

func TestQuickPowerMonotoneBounded(t *testing.T) {
	f := func(a, b uint16) bool {
		u1 := float64(a) / 65535
		u2 := float64(b) / 65535
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		g1, err1 := GCIPower(u1)
		g2, err2 := GCIPower(u2)
		p1, err3 := PiPower(u1)
		p2, err4 := PiPower(u2)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		if g1 > g2+1e-12 || p1 > p2+1e-12 {
			return false
		}
		lowG := 2.0 / 18 * GCIIdleWatts
		return g1 >= lowG-1e-12 && g2 <= 20+1e-12 &&
			p1 >= PiIdleWatts-1e-12 && p2 <= PiPeakWatts+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
