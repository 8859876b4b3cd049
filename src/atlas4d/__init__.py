"""atlas4d: continuous 4D volume representation and temporal denoising.

A time series of 3D volumes is modeled by two coordinate-regression
networks over Fourier-encoded (x, y, z, t); cross-training them at unseen
time points removes temporally inconsistent noise, and the averaged model
reconstructs volumes at arbitrary times and resolutions.
"""

from .encoding import FourierEncoder
from .metrics import (
    dice,
    efc_slice,
    efc_volume,
    msd_temporal,
    psnr,
    series_mse,
    tc,
    threshold_labels,
)
from .network import (
    CheckpointError,
    InrModel,
    MlpConfig,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)
from .optimizer import AdamState, DivergenceError, LrSchedule, adam_step, lr_at
from .phantom import PhantomConfig, generate
from .training import (
    RefineHistory,
    TimeSplit,
    TrainConfig,
    average_predict,
    make_model,
    pretrain,
    pretrain_pair,
    reconstruct,
    refine,
    split_timepoints,
)
from .volume_io import (
    LabelVolume,
    NiftiError,
    Volume3D,
    Volume4D,
    coord_grid,
    denormalize_intensity,
    load_series,
    normalize_intensity,
    normalize_times,
    read_manifest,
    read_nifti,
    voxel_coords,
    write_manifest,
    write_nifti,
)

__version__ = "0.1.0"
