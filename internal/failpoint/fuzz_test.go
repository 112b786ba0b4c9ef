package failpoint

import "testing"

// FuzzFailpointSpec checks the spec grammar, which LoadEnv reads from
// SEDA_FAILPOINTS. No spec panics the parser, and every spec it arms
// fires with a probability in (0, 1] — a NaN or out-of-range modifier
// would arm a site that silently never (or always) fires.
func FuzzFailpointSpec(f *testing.F) {
	for _, seed := range []string{
		"NaN*error(x)", "1e10*error", "0.3*error(boom)", "1*error(a*b)",
		"0.5*sleep(1ms)", "sleep(2s)", "panic(p*q)", "0.9*corrupt", "off", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := parse(spec)
		if err != nil || p == nil {
			return
		}
		if !(p.prob > 0 && p.prob <= 1) {
			t.Fatalf("spec %q armed with probability %v, want (0, 1]", spec, p.prob)
		}
	})
}
