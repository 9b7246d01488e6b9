package trace

import (
	"strings"
	"testing"
)

func TestGanttFigure6Shape(t *testing.T) {
	// L=3, B=4 as in the paper's Figure 6: image 0 should occupy A1 at
	// cycle 1, A2 at cycle 2, A3 at cycle 3, ErrL at cycle 4.
	out, err := Gantt(3, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	find := func(name string) string {
		t.Helper()
		for _, l := range lines {
			if strings.Contains(l, name+" ") {
				return l[strings.LastIndex(l, " ")+1:]
			}
		}
		t.Fatalf("unit %s missing from gantt:\n%s", name, out)
		return ""
	}
	a1 := find("A1")
	if a1[0] != '0' || a1[1] != '1' {
		t.Fatalf("A1 row wrong: %q", a1)
	}
	a3 := find("A3")
	if a3[0] != '.' || a3[1] != '.' || a3[2] != '0' {
		t.Fatalf("A3 row wrong: %q", a3)
	}
	errl := find("ErrL")
	if errl[3] != '0' {
		t.Fatalf("ErrL row wrong: %q", errl)
	}
}

func TestGanttUpdateMark(t *testing.T) {
	// L=2, B=2: period = 2·2+2+1 = 7; the batch of images 0,1 enters at
	// cycles 1,2; the last image finishes at 2+2L = 6; update at cycle 7.
	out, err := Gantt(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "Upd ") {
			row := l[strings.LastIndex(l, " ")+1:]
			if row[6] != '#' {
				t.Fatalf("update mark missing at cycle 7: %q", row)
			}
			return
		}
	}
	t.Fatal("no update row")
}

func TestGanttOneImagePerCycleWithinBatch(t *testing.T) {
	// Within a batch, A1 hosts a new image every cycle (Figure 6's key
	// property).
	out, err := Gantt(3, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " A1 ") || strings.HasSuffix(strings.Fields(l)[0], "A1") {
			row := strings.Fields(l)[1]
			if row[0] != '0' || row[1] != '1' || row[2] != '2' || row[3] != '3' {
				t.Fatalf("A1 must host images 0..3 in cycles 1..4: %q", row)
			}
			return
		}
	}
	t.Fatal("A1 row not found")
}

func TestGanttValidation(t *testing.T) {
	for _, tc := range []struct{ L, B, cycles int }{
		{0, 2, 5}, {2, 0, 5}, {2, 2, 0}, {-1, 2, 5}, {2, 2, -3},
	} {
		if out, err := Gantt(tc.L, tc.B, tc.cycles); err == nil {
			t.Fatalf("Gantt(%d,%d,%d) = %q, want error", tc.L, tc.B, tc.cycles, out)
		}
	}
}

func TestGanttSecondBatchAfterDrain(t *testing.T) {
	// L=2, B=2, period 7: image 2 (next batch) enters A1 at cycle 8.
	out, err := Gantt(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(out, "\n") {
		fields := strings.Fields(l)
		if len(fields) == 2 && fields[0] == "A1" {
			row := fields[1]
			if row[7] != '2' {
				t.Fatalf("image 2 should enter at cycle 8: %q", row)
			}
			return
		}
	}
	t.Fatal("A1 row not found")
}

// TestGanttGolden pins whole charts byte for byte: the paper's Figure 6
// window (L=3, B=4) and an L=2, B=2 run that crosses a batch boundary.
func TestGanttGolden(t *testing.T) {
	for _, tc := range []struct {
		L, B, cycles int
		want         string
	}{
		{3, 4, 12, `      cycle 123456789012
         A1 0123.......4
         A2 .0123.......
         A3 ..0123......
       ErrL ...0123.....
        A3E ....0123....
        A2E .....0123...
        A3D ....0123....
        A2D .....0123...
        A1D ......0123..
        Upd ..........#.
`},
		{2, 2, 16, `      cycle 1234567890123456
         A1 01.....23.....45
         A2 .01.....23.....4
       ErrL ..01.....23.....
        A2E ...01.....23....
        A2D ...01.....23....
        A1D ....01.....23...
        Upd ......#......#..
`},
	} {
		got, err := Gantt(tc.L, tc.B, tc.cycles)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Gantt(%d, %d, %d):\n%s\nwant\n%s", tc.L, tc.B, tc.cycles, got, tc.want)
		}
	}
}
