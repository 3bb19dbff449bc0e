package maporder_test

import (
	"testing"

	"github.com/memcentric/mcdla/internal/analysis/analysistest"
	"github.com/memcentric/mcdla/internal/analysis/maporder"
)

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", maporder.Analyzer, "a", "keyvalue")
}
