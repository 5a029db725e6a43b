package buffer

import (
	"testing"
)

func TestAutoShards(t *testing.T) {
	cases := []struct{ frames, want int }{
		{2, 1}, {32, 1}, {63, 1}, {64, 1}, {128, 2}, {256, 4},
		{512, 8}, {1024, 16}, {2048, 16}, {100000, 16},
	}
	for _, c := range cases {
		if got := autoShards(c.frames); got != c.want {
			t.Errorf("autoShards(%d) = %d, want %d", c.frames, got, c.want)
		}
	}
}
