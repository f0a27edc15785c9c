"""Online statistics, histograms, and accuracy/error metrics."""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "ErrorReport": "repro.stats.error",
    "mean_absolute_percentage_error": "repro.stats.error",
    "percent_error": "repro.stats.error",
    "signed_percent_error": "repro.stats.error",
    "Histogram": "repro.stats.histogram",
    "OnlineStats": "repro.stats.online",
    "LatencyRecorder": "repro.stats.summary",
    "NetworkStats": "repro.stats.summary",
    "RunSummary": "repro.stats.summary",
})

__all__ = [
    "ErrorReport",
    "Histogram",
    "LatencyRecorder",
    "NetworkStats",
    "OnlineStats",
    "RunSummary",
    "mean_absolute_percentage_error",
    "percent_error",
    "signed_percent_error",
]
