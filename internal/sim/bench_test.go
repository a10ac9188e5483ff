package sim

import "testing"

// BenchmarkSimSelfSleep: one proc sleeping alone — every wake-up is its own
// next event, the case a device-side service loop hits between requests.
func BenchmarkSimSelfSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSimHandoff2: two procs alternating Sleep(1), so every wake-up
// switches goroutines. One op is one exchange (two switches).
func BenchmarkSimHandoff2(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	for k := 0; k < 2; k++ {
		e.Go("pingpong", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}
