package stormcast

import (
	"math"
	"testing"
)

// TestObserveNoise pins the sensor noise: readings are a pure function of
// (seed, x, y, t), the seed changes them, each field's noise has its
// stated scale, and a reading costs at most one allocation.
func TestObserveNoise(t *testing.T) {
	m := DefaultModel(16, 16, 42)
	other := DefaultModel(16, 16, 43)
	var p, w, tmp []float64
	for tt := 0; tt < 40; tt++ {
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				o := m.Observe("s", x, y, tt)
				if again := m.Observe("s", x, y, tt); again != o {
					t.Fatalf("(%d,%d,%d): repeat call gave %+v, first %+v", x, y, tt, again, o)
				}
				if alt := other.Observe("s", x, y, tt); alt.Pressure == o.Pressure || alt.Temp == o.Temp {
					t.Fatalf("(%d,%d,%d): seeds 42 and 43 share a noise value", x, y, tt)
				}
				in := m.intensity(x, y, tt)
				p = append(p, o.Pressure-(1013-m.Depth*in))
				w = append(w, o.Wind-(5+m.MaxWind*in))
				tmp = append(tmp, o.Temp-(-12+4*in))
			}
		}
	}
	meanSD := func(v []float64) (mean, sd float64) {
		for _, x := range v {
			mean += x
		}
		mean /= float64(len(v))
		for _, x := range v {
			sd += (x - mean) * (x - mean)
		}
		return mean, math.Sqrt(sd / float64(len(v)))
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("%s = %.3f, want %.3f ± 10%%", name, got, want)
		}
	}
	for _, f := range []struct {
		name  string
		v     []float64
		sigma float64
	}{{"pressure", p, 1.5}, {"temp", tmp, 0.8}} {
		mean, sd := meanSD(f.v)
		near(f.name+" noise sd", sd, f.sigma)
		if math.Abs(mean) > 0.1*f.sigma {
			t.Errorf("%s noise mean = %.3f, want ≈ 0", f.name, mean)
		}
	}
	// Wind noise is |N(0,1)|·1.2: half-normal, so its mean is
	// 1.2·sqrt(2/π) and its root mean square is the stated 1.2.
	mean, _ := meanSD(w)
	var ms float64
	for _, x := range w {
		ms += x * x
	}
	near("wind noise rms", math.Sqrt(ms/float64(len(w))), 1.2)
	near("wind noise mean", mean, 1.2*math.Sqrt(2/math.Pi))

	if a := testing.AllocsPerRun(100, func() { m.Observe("s", 3, 2, 7) }); a > 1 {
		t.Errorf("Observe allocates %.0f times per reading, want <= 1", a)
	}
}

func BenchmarkObserve(b *testing.B) {
	m := DefaultModel(4, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Observe("s", i&3, (i>>2)&3, i>>4)
	}
}
