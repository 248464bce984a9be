"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all litrag errors."""


class ConfigError(PipelineError):
    """Invalid or missing configuration."""


class TemplateError(PipelineError):
    """Prompt template lookup or rendering failure."""


class GatewayError(PipelineError):
    """A request to a model endpoint failed: refused, or failing after all retries."""


class RefusedRequestError(GatewayError):
    """The endpoint answered with a refusal or with a reply that cannot be
    used; sending the request again would pay for the same answer."""


class AuthenticationError(GatewayError):
    """Endpoint rejected our credentials; fatal for that endpoint."""


class CorruptStoreError(PipelineError, ValueError):
    """A store file holds a line its format cannot read."""


class MissingArtifactError(PipelineError):
    """A stage was run before its prerequisite stage."""

    def __init__(self, artifact: str, stage_to_run: str):
        super().__init__(
            f"missing artifact {artifact!r}; run the {stage_to_run!r} stage first"
        )
        self.artifact = artifact
        self.stage_to_run = stage_to_run
