package campaign

import (
	"errors"
	"strings"
	"testing"
)

// TestNameTables: every name the tables list builds what it is named,
// so the tables and the constructors behind them cannot drift apart.
func TestNameTables(t *testing.T) {
	p := learnPipeline()
	for _, name := range ArmNames {
		a, err := Arm(name, 8, p)
		if err != nil {
			t.Fatalf("Arm(%q): %v", name, err)
		}
		if a.Name != name {
			t.Errorf("Arm(%q) builds arm %q", name, a.Name)
		}
		if !strings.HasPrefix(a.sig, name+"/") {
			t.Errorf("Arm(%q) has signature %q", name, a.sig)
		}
	}
	for _, name := range DesignNames {
		newDUT, err := Design(name)
		if err != nil {
			t.Fatalf("Design(%q): %v", name, err)
		}
		if got := newDUT().Name(); got != name {
			t.Errorf("Design(%q) builds design %q", name, got)
		}
	}
}

// TestNameErrors: an unknown name lists the known ones in table
// order, and an LLM arm without a pipeline says so.
func TestNameErrors(t *testing.T) {
	if _, err := Arm("nonsense", 8, nil); err == nil ||
		!strings.Contains(err.Error(), "(have thehuzz, randinst, randfuzz, chatfuzz, chatfuzz-learn)") {
		t.Errorf("Arm(nonsense) = %v", err)
	}
	if _, err := Design("cray-1"); err == nil || !strings.Contains(err.Error(), "(have rocket, boom)") {
		t.Errorf("Design(cray-1) = %v", err)
	}
	for _, name := range ArmNames {
		_, err := Arm(name, 8, nil)
		llm := name == "chatfuzz" || name == "chatfuzz-learn"
		if errors.Is(err, ErrNeedsPipeline) != llm || (err != nil) != llm {
			t.Errorf("Arm(%q, nil pipeline) = %v", name, err)
		}
	}
}
