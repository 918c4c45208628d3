package parser_test

import (
	"testing"

	"repro/internal/oracle/parsetest"
)

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseRule did not panic on bad input")
		}
	}()
	parsetest.MustParseRule("p :-")
}
