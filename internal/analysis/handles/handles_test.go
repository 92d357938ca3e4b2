package handles_test

import (
	"testing"

	"patchindex/internal/analysis/analysistest"
	"patchindex/internal/analysis/handles"
)

func TestSnapClose(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), handles.Analyzer, "snapclose")
}

func TestCloseOwner(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), handles.Analyzer, "closeowner")
}
