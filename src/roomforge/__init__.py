"""roomforge: simulated multi-microphone distant-speech corpus generation.

Synthesizes room impulse responses (directivity-aware image-source method),
recovers measured IRs from exponential sine sweeps, contaminates clean
speech with reverberation and noise, and validates the results with
array-processing and reverberation metrics.
"""

__version__ = "0.1.0"

from .array_dsp import (
    BeamformResult,
    TdoaEstimate,
    delay_and_sum,
    gcc_phat,
    oracle_select,
    steer_and_sum,
)
from .contaminate import (
    CleanReport,
    ContaminationJob,
    convolve,
    mix_noise,
    run_job,
    validate_clean,
)
from .core import (
    AudioSignal,
    Directivity,
    ImpulseResponse,
    MicSpec,
    RoomSpec,
    SourceSpec,
    ValidationError,
    angle_between,
    directivity_gain,
)
from .engine import fft_convolve
from .image_source import (
    ImageSynthesisConfig,
    ResourceError,
    reflectivity_from_t60,
    synthesize_rir,
    synthesize_rirs,
)
from .manifest import (
    CorpusReport,
    IrCache,
    ManifestError,
    ScenarioManifest,
    load_manifest,
    parse_manifest,
    plan_and_run,
)
from .metrics import (
    DecayCurve,
    IrComparison,
    compare_irs,
    direct_to_reverberant_db,
    estimate_t60,
    schroeder_curve,
)
from .storage import load_ir, save_ir
from .sweep import SweepSpec, deconvolve_ir, generate_ess, inverse_filter
from .wavio import read_wav, write_wav
