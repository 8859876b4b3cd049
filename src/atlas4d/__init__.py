"""atlas4d: continuous 4D volume representation and temporal denoising.

A time series of 3D volumes is modeled by two coordinate-regression
networks over Fourier-encoded (x, y, z, t); cross-training them at unseen
time points removes temporally inconsistent noise, and the averaged model
reconstructs volumes at arbitrary times and resolutions.
"""

__version__ = "0.1.0"
