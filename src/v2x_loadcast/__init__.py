"""V2X highway call-trace synthesis and next-interval load forecasting."""

__version__ = "0.1.0"
