package core

// LayerPrices reports how many times LayerFwdTime has run in this process.
func LayerPrices() int64 { return layerPrices.Load() }
