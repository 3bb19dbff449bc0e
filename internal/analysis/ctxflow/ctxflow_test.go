package ctxflow_test

import (
	"testing"

	"github.com/memcentric/mcdla/internal/analysis/analysistest"
	"github.com/memcentric/mcdla/internal/analysis/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, "testdata", ctxflow.Analyzer, "a")
}

func TestCtxflowSkipsPackageMain(t *testing.T) {
	analysistest.Run(t, "testdata", ctxflow.Analyzer, "mainprog")
}
