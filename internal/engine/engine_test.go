package engine

import "testing"

func TestWorkersDefault(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultWorkers}, {-3, DefaultWorkers}, {1, 1}, {17, 17},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
