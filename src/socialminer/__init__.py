"""socialminer: classify profile texts with TF features and k-NN, bin numeric
attributes, emit ARFF datasets and render distribution reports."""

__version__ = "0.1.0"
