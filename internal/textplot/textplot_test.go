package textplot

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22222")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name ") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "-----") {
		t.Errorf("separator = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "alpha  1") {
		t.Errorf("row = %q", lines[2])
	}
	if tab.Rows() != 2 || tab.Cell(0, 0) != "alpha" || tab.Cell(9, 9) != "" {
		t.Error("accessors wrong")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("a")
	tab.AddRow("x", "extra")
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), "extra") {
		t.Error("extra cells must render")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.631) != "63.1%" {
		t.Errorf("Pct = %q", Pct(0.631))
	}
	if F2(1.005) != "1.00" && F2(1.005) != "1.01" {
		t.Errorf("F2 = %q", F2(1.005))
	}
	if F1(2.34) != "2.3" || I(7) != "7" || U(9) != "9" {
		t.Error("basic formatters wrong")
	}
}
