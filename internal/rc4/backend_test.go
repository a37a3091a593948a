package rc4

import "testing"

func TestBackendResolve(t *testing.T) {
	if got, err := BackendScalar.Resolve(); err != nil || got != BackendScalar {
		t.Errorf("explicit scalar resolved to %v, %v", got, err)
	}
	if got, err := BackendMulti.Resolve(); err != nil || got != BackendMulti {
		t.Errorf("explicit multi resolved to %v, %v", got, err)
	}
	if got, err := BackendAuto.Resolve(); err != nil || got != BackendMulti {
		t.Errorf("auto resolved to %v, %v; want multi", got, err)
	}
}

func TestBackendString(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendAuto: "auto", BackendScalar: "scalar", BackendMulti: "multi", Backend(9): "Backend(9)",
	} {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", int(b), got, want)
		}
	}
}
